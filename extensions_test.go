package radloc_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"radloc"
)

func TestPublicMovementModels(t *testing.T) {
	sc := radloc.ScenarioA(100, false)
	cfg := radloc.LocalizerConfig(sc)
	cfg.Movement = radloc.RandomWalk{Sigma: 1}
	if _, err := radloc.NewLocalizer(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Movement = radloc.ConstantVelocity{V: radloc.V(1, 0), Sigma: 0.5}
	if _, err := radloc.NewLocalizer(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPublicCalibration(t *testing.T) {
	check := radloc.Source{Pos: radloc.V(0, 0), Strength: 100}
	pos := radloc.V(3, 0)
	// Exact expected readings back out the exact efficiency.
	lambda := radloc.ExpectedCPM(pos, 2e-4, 5, []radloc.Source{check}, nil)
	readings := []int{int(lambda), int(lambda), int(lambda)}
	eff, err := radloc.CalibrateSensor(readings, pos, 5, check)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eff-2e-4)/2e-4 > 0.01 {
		t.Errorf("calibrated efficiency = %v, want ≈2e-4", eff)
	}
}

func TestPublicRendering(t *testing.T) {
	sc := radloc.ScenarioA(10, true)
	ascii := radloc.RenderASCII(sc, nil, nil)
	if !strings.Contains(ascii, "O") {
		t.Error("ASCII render missing sources")
	}
	svg := radloc.RenderSVG(sc, nil, nil, false)
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("not an SVG")
	}
}

func TestPublicScenarioJSON(t *testing.T) {
	sc := radloc.ScenarioA(10, true)
	data, err := radloc.SaveScenarioJSON(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := radloc.LoadScenarioJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sensors) != 36 || len(back.Obstacles) != 1 {
		t.Errorf("round trip lost data: %d sensors %d obstacles", len(back.Sensors), len(back.Obstacles))
	}
	if _, err := radloc.LoadScenarioJSON([]byte("{}")); err == nil {
		t.Error("empty JSON accepted")
	}
}

func TestPublicRecordReplay(t *testing.T) {
	sc := radloc.ScenarioA(50, false)
	sc.Params.TimeSteps = 4
	var buf bytes.Buffer
	n, err := radloc.RecordMeasurements(&buf, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*36 {
		t.Fatalf("recorded %d", n)
	}
	loc, err := radloc.NewLocalizer(radloc.LocalizerConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	back, err := radloc.ReplayMeasurements(&buf, sc.Sensors, loc)
	if err != nil || back != n {
		t.Fatalf("replayed %d, %v", back, err)
	}
	if st, err := loc.ExportState(); err != nil || st.Iter != n {
		t.Errorf("iterations = %d, %v", st.Iter, err)
	}
}

func TestPublicLatencyMetrics(t *testing.T) {
	errs := []float64{9, 5, 2, 1, 1}
	if got := radloc.TimeToLock(errs, 3); got != 2 {
		t.Errorf("TimeToLock = %d", got)
	}
	if got := radloc.TimeToClear([]float64{3, 0, 0}, 0.5); got != 1 {
		t.Errorf("TimeToClear = %d", got)
	}
	if got := radloc.Availability(errs, 3); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Availability = %v", got)
	}
}

func TestPublicMobileAndDiagnose(t *testing.T) {
	p := radloc.MobilePlanner{Speed: 3, Bounds: radloc.NewRect(radloc.V(0, 0), radloc.V(100, 100))}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sc := radloc.ScenarioA(50, false)
	readings := make([]radloc.DiagnosticReading, len(sc.Sensors))
	for i, sen := range sc.Sensors {
		cpm := int(radloc.ExpectedCPM(sen.Pos, sen.Efficiency, sen.Background, sc.Sources, nil))
		readings[i] = radloc.DiagnosticReading{Sensor: sen, TotalCPM: cpm, Count: 1}
	}
	ests := []radloc.Estimate{
		{Pos: sc.Sources[0].Pos, Strength: 50, Mass: 0.4},
		{Pos: sc.Sources[1].Pos, Strength: 50, Mass: 0.4},
	}
	rep, err := radloc.Diagnose(readings, ests, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RMSZ > 1.5 {
		t.Errorf("perfect model RMSZ = %v", rep.RMSZ)
	}
}
