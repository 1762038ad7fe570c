package replay

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"radloc/internal/core"
	"radloc/internal/eval"
	"radloc/internal/fusion"
	"radloc/internal/scenario"
)

func TestWriteProducesFullStream(t *testing.T) {
	sc := scenario.A(50, false)
	sc.Params.TimeSteps = 4
	var buf bytes.Buffer
	n, err := Write(&buf, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*36 {
		t.Fatalf("records = %d, want 144", n)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != n {
		t.Fatalf("lines = %d, want %d", lines, n)
	}
	if !strings.Contains(buf.String(), `"sensorId":`) {
		t.Error("JSON fields missing")
	}
}

func TestWriteDeterministic(t *testing.T) {
	sc := scenario.A(10, false)
	sc.Params.TimeSteps = 3
	var a, b bytes.Buffer
	if _, err := Write(&a, sc, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(&b, sc, 7); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("identical seeds produced different streams")
	}
	var c bytes.Buffer
	if _, err := Write(&c, sc, 8); err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Error("different seeds produced identical streams")
	}
}

func TestWriteRejectsInvalidScenario(t *testing.T) {
	sc := scenario.A(10, false)
	sc.Sensors = nil
	if _, err := Write(&bytes.Buffer{}, sc, 1); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestRoundTripLocalizes(t *testing.T) {
	sc := scenario.A(50, false)
	sc.Params.TimeSteps = 8
	var buf bytes.Buffer
	if _, err := Write(&buf, sc, 3); err != nil {
		t.Fatal(err)
	}

	cfg := fusion.LocalizerConfig(sc)
	cfg.Seed = 3
	loc, err := core.NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Read(&buf, sc.Sensors, loc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8*36 {
		t.Fatalf("replayed %d records", n)
	}
	m := eval.Match(loc.Estimates(), sc.Sources, 40)
	if m.FalseNeg != 0 {
		t.Errorf("replayed stream missed sources: %+v", m)
	}
}

func TestReadErrors(t *testing.T) {
	sc := scenario.A(10, false)
	loc, err := core.NewLocalizer(fusion.LocalizerConfig(sc))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Read(strings.NewReader("garbage\n"), sc.Sensors, loc); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := Read(strings.NewReader(`{"sensorId":999,"cpm":5}`+"\n"), sc.Sensors, loc); err == nil {
		t.Error("unknown sensor accepted")
	}
	if _, err := Read(strings.NewReader(`{"sensorId":0,"cpm":-5}`+"\n"), sc.Sensors, loc); err == nil {
		t.Error("negative CPM accepted")
	}
	// Blank lines are skipped, not errors.
	n, err := Read(strings.NewReader("\n\n"), sc.Sensors, loc)
	if err != nil || n != 0 {
		t.Errorf("blank-only stream: %d, %v", n, err)
	}
}

func TestOutOfOrderScenarioRecordsArrivalOrder(t *testing.T) {
	sc := scenario.C(false, 1)
	sc.Params.TimeSteps = 2
	var buf bytes.Buffer
	n, err := Write(&buf, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*len(sc.Sensors) {
		t.Fatalf("records = %d", n)
	}
	// Steps must appear out of order somewhere (arrival order ≠
	// emission order under random latency).
	var steps []int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, rec.Step)
	}
	inversions := 0
	for i := 1; i < len(steps); i++ {
		if steps[i] < steps[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("out-of-order scenario recorded perfectly ordered steps")
	}
}
