package network

import (
	"fmt"
	"testing"

	"radloc/internal/rng"
)

// validatePlan checks a plan's invariants: sensor indices in range,
// emit steps in [0, Steps), arrivals monotone.
func validatePlan(p Plan, numSensors int) error {
	prev := -1.0
	for i, e := range p.Events {
		if e.SensorIndex < 0 || e.SensorIndex >= numSensors {
			return fmt.Errorf("event %d has sensor index %d out of [0,%d)", i, e.SensorIndex, numSensors)
		}
		if e.EmitStep < 0 || e.EmitStep >= p.Steps {
			return fmt.Errorf("event %d has emit step %d out of [0,%d)", i, e.EmitStep, p.Steps)
		}
		if e.Arrival < prev {
			return fmt.Errorf("event %d arrives at %v before predecessor %v", i, e.Arrival, prev)
		}
		prev = e.Arrival
	}
	return nil
}

func TestInOrderPlan(t *testing.T) {
	p := InOrder(4, 3)
	if err := validatePlan(p, 4); err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 12 {
		t.Fatalf("events = %d, want 12", len(p.Events))
	}
	// First four events are step 0 sensors 0..3 in order.
	for i := 0; i < 4; i++ {
		e := p.Events[i]
		if e.SensorIndex != i || e.EmitStep != 0 {
			t.Errorf("event %d = %+v", i, e)
		}
	}
	if p.ReorderFraction() != 0 {
		t.Errorf("in-order plan reorder fraction = %v", p.ReorderFraction())
	}
}

func TestInOrderDegenerate(t *testing.T) {
	if p := InOrder(0, 5); len(p.Events) != 0 {
		t.Errorf("zero sensors: %d events", len(p.Events))
	}
	if p := InOrder(5, 0); len(p.Events) != 0 || p.Steps != 0 {
		t.Errorf("zero steps: %+v", p)
	}
}

func TestEventsInStep(t *testing.T) {
	p := InOrder(6, 4)
	total := 0
	for step := 0; step < 4; step++ {
		evs := p.EventsInStep(step)
		if len(evs) != 6 {
			t.Errorf("step %d has %d events, want 6", step, len(evs))
		}
		for _, e := range evs {
			if e.EmitStep != step {
				t.Errorf("step %d got event emitted at %d", step, e.EmitStep)
			}
		}
		total += len(evs)
	}
	if total != len(p.Events) {
		t.Errorf("steps cover %d of %d events", total, len(p.Events))
	}
}

func TestOutOfOrderReordersAndCoversAllSteps(t *testing.T) {
	s := rng.New(11, 13)
	p := OutOfOrder(36, 10, s, Options{MeanLatency: 0.8})
	if err := validatePlan(p, 36); err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 360 {
		t.Fatalf("no-drop plan lost events: %d", len(p.Events))
	}
	if f := p.ReorderFraction(); f <= 0.05 {
		t.Errorf("out-of-order plan barely reordered: %v", f)
	}
	// All events are still delivered inside the plan horizon via the
	// final-step straggler rule.
	total := 0
	for step := 0; step < p.Steps; step++ {
		total += len(p.EventsInStep(step))
	}
	if total != len(p.Events) {
		t.Errorf("steps cover %d of %d events (stragglers lost)", total, len(p.Events))
	}
}

func TestOutOfOrderDrops(t *testing.T) {
	s := rng.New(3, 3)
	p := OutOfOrder(50, 10, s, Options{MeanLatency: 0.2, DropProb: 0.3})
	got := len(p.Events)
	if got >= 500 || got < 250 {
		t.Errorf("drop prob 0.3 kept %d/500 events", got)
	}
	// Clamp out-of-range drop probabilities.
	all := OutOfOrder(10, 2, rng.New(1, 1), Options{DropProb: 2})
	if len(all.Events) != 0 {
		t.Errorf("DropProb>1 should drop everything, kept %d", len(all.Events))
	}
	none := OutOfOrder(10, 2, rng.New(1, 1), Options{DropProb: -1})
	if len(none.Events) != 20 {
		t.Errorf("DropProb<0 should keep everything, kept %d", len(none.Events))
	}
}

func TestOutOfOrderDeterministic(t *testing.T) {
	p1 := OutOfOrder(20, 5, rng.New(9, 9), Options{MeanLatency: 0.5})
	p2 := OutOfOrder(20, 5, rng.New(9, 9), Options{MeanLatency: 0.5})
	if len(p1.Events) != len(p2.Events) {
		t.Fatal("plans differ in length")
	}
	for i := range p1.Events {
		if p1.Events[i] != p2.Events[i] {
			t.Fatalf("plans diverge at event %d", i)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := InOrder(4, 2)
	bad := p
	bad.Events = append([]Event(nil), p.Events...)
	bad.Events[3].SensorIndex = 99
	if err := validatePlan(bad, 4); err == nil {
		t.Error("bad sensor index not caught")
	}
	bad.Events[3] = p.Events[3]
	bad.Events[5].Arrival = -1
	if err := validatePlan(bad, 4); err == nil {
		t.Error("non-monotone arrival not caught")
	}
	bad.Events[5] = p.Events[5]
	bad.Events[2].EmitStep = 7
	if err := validatePlan(bad, 4); err == nil {
		t.Error("emit step out of range not caught")
	}
}

func TestPlanFilter(t *testing.T) {
	p := InOrder(4, 3)
	// Knock sensor 2 out entirely (a dead sensor's delivery-level fault).
	q := p.Filter(func(e Event) bool { return e.SensorIndex != 2 })
	if len(q.Events) != 9 {
		t.Fatalf("filtered events = %d, want 9", len(q.Events))
	}
	if q.Steps != p.Steps {
		t.Errorf("filtered Steps = %d, want %d", q.Steps, p.Steps)
	}
	if err := validatePlan(q, 4); err != nil {
		t.Fatal(err)
	}
	for _, e := range q.Events {
		if e.SensorIndex == 2 {
			t.Fatalf("sensor 2 survived the filter: %+v", e)
		}
	}
	// The original plan is untouched.
	if len(p.Events) != 12 {
		t.Errorf("Filter mutated the source plan: %d events", len(p.Events))
	}
	// Keep-all round-trips.
	if all := p.Filter(func(Event) bool { return true }); len(all.Events) != 12 {
		t.Errorf("keep-all filter dropped events: %d", len(all.Events))
	}
}
