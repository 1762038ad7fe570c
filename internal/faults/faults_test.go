package faults

import (
	"math"
	"strings"
	"testing"
)

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Sensor: -1, Kind: StuckAt},
		{Sensor: 9, Kind: StuckAt},
		{Sensor: 0, Kind: StuckAt, StartStep: -1},
		{Sensor: 0, Kind: StuckAt, StuckCPM: -5},
		{Sensor: 0, Kind: Drift, Gain: math.NaN()},
		{Sensor: 0, Kind: Drift, Gain: math.Inf(1)},
		{Sensor: 0, Kind: Dropout, Prob: -0.1},
		{Sensor: 0, Kind: Dropout, Prob: 1.5},
		{Sensor: 0, Kind: Burst, Prob: 0.5, BurstCPM: -1},
		{Sensor: 0, Kind: Byzantine, MaxCPM: -1},
		{Sensor: 0, Kind: Kind(42)},
	}
	for i, s := range bad {
		if err := s.Validate(9); err == nil {
			t.Errorf("spec %d (%+v) accepted", i, s)
		}
	}
	if _, err := NewInjector(0, 1, nil); err == nil {
		t.Error("zero-sensor injector accepted")
	}
	if _, err := NewInjector(9, 1, []Spec{{Sensor: 42, Kind: StuckAt}}); err == nil {
		t.Error("out-of-range spec accepted")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		StuckAt: "stuck-at", Drift: "drift", Dropout: "dropout",
		Burst: "burst", Byzantine: "byzantine",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}

func TestNilInjectorPassesThrough(t *testing.T) {
	var in *Injector
	if !in.Delivered(3, 7) {
		t.Error("nil injector dropped a reading")
	}
	if got := in.Transform(3, 7, 42); got != 42 {
		t.Errorf("nil injector transformed 42 → %d", got)
	}
	if got, ok := apply(in, 3, 7, 42); !ok || got != 42 {
		t.Errorf("nil injector apply = (%d, %v)", got, ok)
	}
}

func TestStuckAt(t *testing.T) {
	in, err := NewInjector(4, 1, []Spec{{Sensor: 2, Kind: StuckAt, StuckCPM: 500, StartStep: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Transform(2, 2, 10); got != 10 {
		t.Errorf("pre-onset reading transformed: %d", got)
	}
	for step := 3; step < 8; step++ {
		if got := in.Transform(2, step, 10); got != 500 {
			t.Errorf("step %d: stuck reading = %d, want 500", step, got)
		}
	}
	if got := in.Transform(1, 5, 10); got != 10 {
		t.Errorf("healthy sensor transformed: %d", got)
	}
}

func TestDriftRamp(t *testing.T) {
	in, err := NewInjector(4, 1, []Spec{{Sensor: 0, Kind: Drift, Gain: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	// step 0: ×1, step 2: ×2, step 4: ×3.
	for _, tc := range []struct{ step, want int }{{0, 100}, {2, 200}, {4, 300}} {
		if got := in.Transform(0, tc.step, 100); got != tc.want {
			t.Errorf("step %d: %d, want %d", tc.step, got, tc.want)
		}
	}
	// Negative gain floors at zero rather than going negative.
	neg, err := NewInjector(4, 1, []Spec{{Sensor: 0, Kind: Drift, Gain: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := neg.Transform(0, 10, 100); got != 0 {
		t.Errorf("negative-gain drift yields %d, want 0", got)
	}
}

func TestDropoutRates(t *testing.T) {
	in, err := NewInjector(4, 7, []Spec{{Sensor: 1, Kind: Dropout, Prob: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	const n = 5000
	for step := 0; step < n; step++ {
		if !in.Delivered(1, step) {
			lost++
		}
	}
	rate := float64(lost) / n
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("dropout rate %v, want ≈ 0.3", rate)
	}
	for step := 0; step < 100; step++ {
		if !in.Delivered(0, step) {
			t.Fatal("healthy sensor dropped")
		}
	}
	// Prob = 1 is a dead sensor.
	dead, err := NewInjector(4, 7, []Spec{{Sensor: 2, Kind: Dropout, Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		if dead.Delivered(2, step) {
			t.Fatal("dead sensor delivered")
		}
	}
}

func TestBurstAddsCounts(t *testing.T) {
	in, err := NewInjector(4, 3, []Spec{{Sensor: 0, Kind: Burst, Prob: 0.4, BurstCPM: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	bursts := 0
	const n = 5000
	for step := 0; step < n; step++ {
		got := in.Transform(0, step, 10)
		switch got {
		case 10:
		case 1010:
			bursts++
		default:
			t.Fatalf("step %d: burst produced %d", step, got)
		}
	}
	rate := float64(bursts) / n
	if rate < 0.35 || rate > 0.45 {
		t.Errorf("burst rate %v, want ≈ 0.4", rate)
	}
}

func TestByzantineSpoofs(t *testing.T) {
	in, err := NewInjector(4, 5, []Spec{{Sensor: 3, Kind: Byzantine}})
	if err != nil {
		t.Fatal(err)
	}
	varies := false
	for step := 0; step < 200; step++ {
		got := in.Transform(3, step, 10)
		if got < 0 || got > DefaultByzantineCeiling {
			t.Fatalf("spoof %d outside [0, %d]", got, DefaultByzantineCeiling)
		}
		if got != 10 {
			varies = true
		}
	}
	if !varies {
		t.Error("byzantine spoofs never changed the reading")
	}
}

func TestDeterminismAndOrderIndependence(t *testing.T) {
	specs := []Spec{
		{Sensor: 0, Kind: Dropout, Prob: 0.5},
		{Sensor: 1, Kind: Byzantine},
		{Sensor: 2, Kind: Burst, Prob: 0.5, BurstCPM: 77},
	}
	a, err := NewInjector(4, 11, specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(4, 11, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Querying b in reverse order must not change any per-reading result:
	// randomness is a pure function of (seed, sensor, step).
	type key struct{ sensor, step int }
	got := map[key][2]int{}
	for sensor := 0; sensor < 4; sensor++ {
		for step := 0; step < 50; step++ {
			v, ok := apply(a, sensor, step, 10)
			d := 0
			if ok {
				d = 1
			}
			got[key{sensor, step}] = [2]int{v, d}
		}
	}
	for sensor := 3; sensor >= 0; sensor-- {
		for step := 49; step >= 0; step-- {
			v, ok := apply(b, sensor, step, 10)
			d := 0
			if ok {
				d = 1
			}
			if want := got[key{sensor, step}]; want != [2]int{v, d} {
				t.Fatalf("sensor %d step %d: reverse-order result (%d,%d) != forward %v",
					sensor, step, v, d, want)
			}
		}
	}
	// A different seed must produce a different stream somewhere.
	c, err := NewInjector(4, 12, specs)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for step := 0; step < 50 && !differs; step++ {
		av, aok := apply(a, 1, step, 10)
		cv, cok := apply(c, 1, step, 10)
		if av != cv || aok != cok {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 11 and 12 produced identical byzantine streams")
	}
}

func TestComposition(t *testing.T) {
	// Drift then burst on the same sensor: both visible.
	in, err := NewInjector(2, 9, []Spec{
		{Sensor: 0, Kind: Drift, Gain: 1},                 // step 1 → ×2
		{Sensor: 0, Kind: Burst, Prob: 1, BurstCPM: 5},    // always fires
		{Sensor: 0, Kind: Dropout, Prob: 0, StartStep: 0}, // never drops
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := apply(in, 0, 1, 10)
	if !ok || got != 25 {
		t.Errorf("composed faults: (%d, %v), want (25, true)", got, ok)
	}
	if got, ok := apply(in, 1, 1, 10); !ok || got != 10 {
		t.Errorf("sensor without faults: (%d, %v), want (10, true)", got, ok)
	}
}

// apply is what the simulator does with one reading: drop it, or pass
// it on transformed.
func apply(in *Injector, sensor, step, cpm int) (int, bool) {
	if !in.Delivered(sensor, step) {
		return 0, false
	}
	return in.Transform(sensor, step, cpm), true
}
