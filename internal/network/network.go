// Package network simulates how sensor measurements reach the fusion
// center. The paper's algorithm deliberately consumes one measurement
// per iteration with no ordering requirement (Section V), which makes
// it robust to the delivery pathologies of multi-hop wireless sensor
// networks. This package produces delivery plans that exercise that
// robustness:
//
//   - InOrder: every sensor reports once per time step, in sensor-ID
//     order (the paper's Scenarios A and B).
//   - OutOfOrder: per-message random latency reorders deliveries across
//     step boundaries, and messages may be lost (Scenario C).
package network

import (
	"sort"

	"radloc/internal/rng"
)

// Event is one measurement delivery: sensor SensorIndex's reading taken
// at time step EmitStep arrives at time Arrival (in fractional time-step
// units).
type Event struct {
	SensorIndex int
	EmitStep    int
	Arrival     float64
}

// Plan is an ordered sequence of deliveries spanning Steps time steps.
type Plan struct {
	Events []Event
	Steps  int
}

// EventsInStep returns the (contiguous) events whose arrival lies in
// [step, step+1). Events arriving at or after Steps are folded into the
// final step so late stragglers are still processed.
func (p Plan) EventsInStep(step int) []Event {
	lo := sort.Search(len(p.Events), func(i int) bool {
		return p.Events[i].Arrival >= float64(step)
	})
	hiBound := float64(step + 1)
	if step == p.Steps-1 {
		hiBound = float64(p.Steps) + 1e18 // absorb stragglers
	}
	hi := sort.Search(len(p.Events), func(i int) bool {
		return p.Events[i].Arrival >= hiBound
	})
	return p.Events[lo:hi]
}

// Filter returns a copy of the plan keeping only the events for which
// keep returns true. Arrival order is preserved. This is the hook
// fault injectors use to knock delivery-level faults (dropouts, dead
// sensors) out of a schedule before it is replayed.
func (p Plan) Filter(keep func(Event) bool) Plan {
	out := Plan{Events: make([]Event, 0, len(p.Events)), Steps: p.Steps}
	for _, e := range p.Events {
		if keep(e) {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// InOrder builds the paper's default delivery plan: in each of steps
// time steps, every one of numSensors sensors delivers exactly one
// measurement, in index order.
func InOrder(numSensors, steps int) Plan {
	if numSensors < 1 || steps < 1 {
		return Plan{Steps: maxInt(steps, 0)}
	}
	events := make([]Event, 0, numSensors*steps)
	for t := 0; t < steps; t++ {
		for i := 0; i < numSensors; i++ {
			events = append(events, Event{
				SensorIndex: i,
				EmitStep:    t,
				Arrival:     float64(t) + float64(i)/float64(numSensors),
			})
		}
	}
	return Plan{Events: events, Steps: steps}
}

// Options configures OutOfOrder delivery.
type Options struct {
	// MeanLatency is the mean extra delay per message, in time-step
	// units, drawn from an exponential distribution. Zero means no
	// extra delay (but per-step emission order is still shuffled).
	MeanLatency float64
	// DropProb is the probability a message is lost entirely.
	DropProb float64
}

// OutOfOrder builds a Scenario-C-style plan: each sensor still emits
// once per step, but messages suffer random exponential latency
// (reordering them across steps) and may be dropped.
func OutOfOrder(numSensors, steps int, stream *rng.Stream, opts Options) Plan {
	if numSensors < 1 || steps < 1 {
		return Plan{Steps: maxInt(steps, 0)}
	}
	if opts.DropProb < 0 {
		opts.DropProb = 0
	}
	if opts.DropProb > 1 {
		opts.DropProb = 1
	}
	events := make([]Event, 0, numSensors*steps)
	for t := 0; t < steps; t++ {
		for i := 0; i < numSensors; i++ {
			if opts.DropProb > 0 && stream.Float64() < opts.DropProb {
				continue
			}
			emit := float64(t) + stream.Float64() // random slot within the step
			events = append(events, Event{
				SensorIndex: i,
				EmitStep:    t,
				Arrival:     emit + stream.Exponential(opts.MeanLatency),
			})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].Arrival < events[b].Arrival })
	return Plan{Events: events, Steps: steps}
}

// ReorderFraction reports the fraction of adjacent delivery pairs whose
// emit steps are inverted (a later-emitted message arriving first) — a
// simple scalar measure of how out-of-order a plan is.
func (p Plan) ReorderFraction() float64 {
	if len(p.Events) < 2 {
		return 0
	}
	inv := 0
	for i := 1; i < len(p.Events); i++ {
		if p.Events[i].EmitStep < p.Events[i-1].EmitStep {
			inv++
		}
	}
	return float64(inv) / float64(len(p.Events)-1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
