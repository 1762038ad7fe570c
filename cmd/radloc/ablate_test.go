package main

import (
	"strings"
	"testing"
)

func TestAblateErrors(t *testing.T) {
	if _, err := execute(t, "ablate"); err == nil {
		t.Error("missing experiment accepted")
	}
	if _, err := execute(t, "ablate", "bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAblateFusionRange(t *testing.T) {
	out, err := execute(t, "ablate", "fusion-range", "-steps", "2", "-reps", "1", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fusion_range,mean_err,false_pos,false_neg") {
		t.Errorf("header wrong:\n%s", firstLine(out))
	}
	for _, row := range []string{"\n10,", "\n28,", "\ndisabled,"} {
		if !strings.Contains(out, row) {
			t.Errorf("missing sweep row %q", row)
		}
	}
}

func TestAblateEstimator(t *testing.T) {
	out, err := execute(t, "ablate", "estimator", "-steps", "3", "-reps", "1", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\nmean-shift,") || !strings.Contains(out, "\ncentroid,") {
		t.Errorf("estimator rows missing:\n%s", out)
	}
}

func TestAblateScaleK(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario B sweep is slow")
	}
	out, err := execute(t, "ablate", "scale-k", "-steps", "2", "-reps", "1", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"\n1,", "\n5,", "\n9,"} {
		if !strings.Contains(out, row) {
			t.Errorf("missing K row %q:\n%s", row, out)
		}
	}
	if !strings.Contains(out, "sec_per_trial") {
		t.Error("timing column missing")
	}
}

func TestAblateFaults(t *testing.T) {
	out, err := execute(t, "ablate", "faults", "-steps", "8", "-reps", "1", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fault_prob,defended_err,undefended_err,defended_fn,undefended_fn,mean_quarantined") {
		t.Errorf("header wrong:\n%s", firstLine(out))
	}
	for _, row := range []string{"\n0.000,", "\n0.100,", "\n0.300,"} {
		if !strings.Contains(out, row) {
			t.Errorf("missing sweep row %q:\n%s", row, out)
		}
	}
	// At p = 0 no sensor is faulted, so both engines consume the
	// identical trusted stream and the columns must coincide.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "0.000,") {
			f := strings.Split(line, ",")
			if f[1] != f[2] {
				t.Errorf("p=0 columns differ: defended %s vs undefended %s", f[1], f[2])
			}
		}
	}
}

func TestAblateTransport(t *testing.T) {
	out, err := execute(t, "ablate", "transport", "-steps", "4", "-reps", "1", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "loss,partition_s,spool,delivered_frac,mean_err,false_neg,duplicates") {
		t.Errorf("header wrong:\n%s", firstLine(out))
	}
	// Spooled delivery must hand over every reading in every cell of
	// the sweep — partitions cost latency, never data.
	for _, line := range strings.Split(out, "\n") {
		f := strings.Split(line, ",")
		if len(f) < 4 || f[2] != "on" {
			continue
		}
		if f[3] != "1.000" {
			t.Errorf("spooled delivered_frac = %s in row %q, want 1.000", f[3], line)
		}
	}
	if !strings.Contains(out, ",off,") {
		t.Error("unspooled rows missing")
	}
}

// TestAblateStorage runs the sweep at two stream lengths. At 4 steps
// the stream is no longer than the reorder window: every reading is
// still held in the gate when the drain ends, so the final settle is
// the first journal write and meets the ENOSPC window still open. At
// 12 steps, the documented setting, the window closes during the
// drain. Each condition must still deliver and recover every
// acknowledged record.
func TestAblateStorage(t *testing.T) {
	for _, steps := range []string{"4", "12"} {
		t.Run("steps="+steps, func(t *testing.T) {
			out, err := execute(t, "ablate", "storage", "-steps", steps, "-reps", "1", "-seed", "3")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "condition,delivered_frac,http_507,faults_injected,durable_frac,mean_err") {
				t.Errorf("header wrong:\n%s", firstLine(out))
			}
			rows := 0
			for _, line := range strings.Split(out, "\n") {
				f := strings.Split(line, ",")
				if len(f) != 6 || f[0] == "condition" {
					continue
				}
				rows++
				if f[1] != "1.000" || f[4] != "1.000" {
					t.Errorf("row %q: delivered_frac %s durable_frac %s, want 1.000 and 1.000", line, f[1], f[4])
				}
			}
			if rows != 5 {
				t.Errorf("%d condition rows, want 5:\n%s", rows, out)
			}
		})
	}
}

func TestDiagnoseCommand(t *testing.T) {
	out, err := execute(t, "diagnose", "-scenario", "A", "-obstacles", "-steps", "8", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sensor,x,y,expected_cpm,observed_cpm,z") {
		t.Errorf("header missing:\n%s", firstLine(out))
	}
	if !strings.Contains(out, "RMS standardized residual") {
		t.Error("summary missing")
	}
	// With the hidden U-obstacle present, shadowed sensors must be found.
	if !strings.Contains(out, "read LESS") {
		t.Error("hidden obstacle not flagged")
	}
	if _, err := execute(t, "diagnose", "-scenario", "Z"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestDiagnoseCleanModel(t *testing.T) {
	out, err := execute(t, "diagnose", "-scenario", "A", "-obstacles=false", "-steps", "8", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no evidence of unmodeled obstacles") && strings.Count(out, "read LESS") > 0 {
		// A clean model should usually report no shadows; tolerate rare
		// statistical flags but require the happy-path text to exist in
		// at least the obstacle-free run most of the time.
		t.Logf("clean run flagged shadows (possible but rare):\n%s", out)
	}
}

func TestRecordCommand(t *testing.T) {
	out, err := execute(t, "record", "-scenario", "A", "-strength", "50", "-steps", "2", "-seed", "4")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 72 {
		t.Fatalf("lines = %d, want 72 (2 steps × 36 sensors)", len(lines))
	}
	if !strings.Contains(lines[0], `"sensorId":`) || !strings.Contains(lines[0], `"cpm":`) {
		t.Errorf("record format wrong: %s", lines[0])
	}
	if _, err := execute(t, "record", "-scenario", "Z"); err == nil {
		t.Error("unknown scenario accepted")
	}
}
