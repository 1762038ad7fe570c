package radloc_test

import (
	"math"
	"testing"

	"radloc"
)

// TestPublicAPIEndToEnd exercises the whole public surface the way the
// README's quick start does.
func TestPublicAPIEndToEnd(t *testing.T) {
	sc := radloc.ScenarioA(50, false)
	sc.Params.TimeSteps = 8
	res, err := radloc.Run(sc, radloc.RunOptions{Seed: 1, Reps: 2, TrialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanErr) != 8 {
		t.Fatalf("MeanErr length = %d", len(res.MeanErr))
	}
	if last := res.MeanErr[7]; math.IsNaN(last) || last > 10 {
		t.Errorf("final error = %v", last)
	}
}

func TestPublicStreamingAPI(t *testing.T) {
	sc := radloc.ScenarioA(50, false)
	loc, err := radloc.NewLocalizer(radloc.LocalizerConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	// Drive the localizer with exact expected readings (no noise needed
	// for an API smoke test).
	for step := 0; step < 5; step++ {
		for _, sen := range sc.Sensors {
			cpm := int(math.Round(radloc.ExpectedCPM(sen.Pos, sen.Efficiency, sen.Background, sc.Sources, nil)))
			loc.Ingest(sen, cpm)
		}
	}
	ests := loc.Estimates()
	m := radloc.Match(ests, sc.Sources, 40)
	if m.FalseNeg != 0 {
		t.Errorf("noise-free streaming run missed sources: %+v (ests %v)", m, ests)
	}
}

func TestPublicScenarios(t *testing.T) {
	if n := len(radloc.ScenarioB(true).Sensors); n != 196 {
		t.Errorf("ScenarioB sensors = %d", n)
	}
	if n := len(radloc.ScenarioC(true, 1).Sensors); n != 195 {
		t.Errorf("ScenarioC sensors = %d", n)
	}
	if n := len(radloc.ScenarioAThree(10).Sources); n != 3 {
		t.Errorf("ScenarioAThree sources = %d", n)
	}
	b := radloc.NewRect(radloc.V(0, 0), radloc.V(100, 100))
	if ps := radloc.PoissonSensors(b, 10, 2, 1e-4, 5); len(ps) != 10 {
		t.Error("poisson field wrong size")
	}
	if radloc.DefaultParams().FusionRange != 28 {
		t.Errorf("default fusion range = %v", radloc.DefaultParams().FusionRange)
	}
}

func TestPublicGeometryAndMaterials(t *testing.T) {
	r := radloc.NewRect(radloc.V(0, 0), radloc.V(10, 10))
	if r.Width() != 10 {
		t.Errorf("rect width = %v", r.Width())
	}
	poly, err := radloc.NewPolygon([]radloc.Vec{radloc.V(0, 0), radloc.V(4, 0), radloc.V(0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if a := poly.Area(); math.Abs(a-8) > 1e-9 {
		t.Errorf("polygon area = %v", a)
	}
	mu, err := radloc.Lead.Mu()
	if err != nil || mu <= 0 {
		t.Errorf("lead µ = %v, %v", mu, err)
	}
}

func TestPublicDeliveryPlans(t *testing.T) {
	in := radloc.InOrderDelivery(5, 3)
	if len(in.Events) != 15 {
		t.Errorf("in-order events = %d", len(in.Events))
	}
	out := radloc.OutOfOrderDelivery(5, 3, 42, 0.5, 0.2)
	if len(out.Events) >= 15 || len(out.Events) == 0 {
		t.Errorf("out-of-order with drop kept %d/15", len(out.Events))
	}
}

func TestPublicBaselines(t *testing.T) {
	sc := radloc.ScenarioA(50, false)
	var readings []radloc.Reading
	for _, sen := range sc.Sensors {
		cpm := int(math.Round(radloc.ExpectedCPM(sen.Pos, sen.Efficiency, sen.Background, sc.Sources, nil)))
		readings = append(readings, radloc.Reading{Sensor: sen, CPM: cpm})
	}
	res, err := radloc.BaselineMLE(readings, radloc.MLEConfig{
		Bounds: sc.Bounds, KMax: 2, Starts: 8, Criterion: radloc.BIC,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Errorf("BaselineMLE selected K = %d, want 2", res.K)
	}
	grid, err := radloc.BaselineGrid(readings, radloc.GridConfig{Bounds: sc.Bounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Sources) == 0 {
		t.Error("BaselineGrid found nothing")
	}
}
