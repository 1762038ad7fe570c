package main

import (
	"fmt"
	"math"

	"radloc/internal/network"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/transport"
	"radloc/internal/wal"
	"radloc/internal/zone"
)

// checkpointEvery is radlocd's default checkpoint cadence in journaled
// records; every workload runs with it.
const checkpointEvery = 1000

// reorderWindow is the engine's default reorder window in sequence
// rounds. Readings of the newest reorderWindow rounds are still held in
// the gate, not journaled, when the crash image is taken, so the
// measured phase starts by redelivering that many warm steps.
const reorderWindow = 4

// workload is one traffic mix: the deployment, the durability policy,
// the size of the crash image and how the measured window loads the
// node.
type workload struct {
	name string
	// scenario builds the sensor deployment every zone's engine uses.
	scenario func() scenario.Scenario
	// zones receive the traffic; zone.DefaultZone is the unnamed route.
	zones []string
	fsync wal.FsyncPolicy
	// warm is the minimum number of delivery steps per zone in the crash
	// image.
	warm int
	// openLoop sends on a fixed schedule of rate delivery steps per
	// second per zone. A closed loop sends the next batch as soon as the
	// previous one is acknowledged.
	openLoop bool
	rate     float64
	// maxRate bounds a closed loop's delivery steps per second; it sizes
	// the stream generated before timing starts.
	maxRate float64
	// perReading posts one reading per request instead of one delivery
	// step per request.
	perReading bool
	// writeConns is the number of connections carrying writes; zones are
	// dealt to them round robin.
	writeConns int
	// readHz is the GET /snapshot rate of a reader on a connection of its
	// own; 0 means no reader.
	readHz float64
	// qualitySteps is the number of measured delivery steps after which
	// a closed loop's localization quality is scored, so that score does
	// not depend on how many steps the window happened to deliver.
	qualitySteps int
}

// workloads are the benchmark's traffic mixes, in the order a full
// invocation runs them.
var workloads = []*workload{
	{
		name:       "field-a",
		scenario:   func() scenario.Scenario { return scenario.A(50, true) },
		zones:      []string{zone.DefaultZone},
		fsync:      wal.FsyncBatch,
		warm:       300,
		openLoop:   true,
		rate:       50,
		writeConns: 1,
		readHz:     20,
	},
	{
		name:         "capacity-a",
		scenario:     func() scenario.Scenario { return scenario.A(50, true) },
		zones:        []string{zone.DefaultZone},
		fsync:        wal.FsyncBatch,
		warm:         300,
		maxRate:      400,
		writeConns:   1,
		qualitySteps: 200,
	},
	{
		name:         "wide-c",
		scenario:     func() scenario.Scenario { return scenario.C(true, 1) },
		zones:        []string{zone.DefaultZone},
		fsync:        wal.FsyncBatch,
		warm:         40,
		maxRate:      40,
		writeConns:   1,
		readHz:       5,
		qualitySteps: 100,
	},
	{
		name:       "fleet-4z",
		scenario:   func() scenario.Scenario { return scenario.A(50, true) },
		zones:      []string{"z1", "z2", "z3", "z4"},
		fsync:      wal.FsyncAlways,
		warm:       100,
		openLoop:   true,
		rate:       10,
		perReading: true,
		writeConns: 2,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// step is one zone's delivery step: the batches posted for it, in
// order. A step is one sensor round for the in-order scenarios and the
// readings arriving within one time step for Scenario C.
type step [][]transport.Reading

// zoneStream is everything one zone receives: the warm steps that
// build the crash image followed by the measured steps.
type zoneStream struct {
	zone  string
	steps []step
}

// sizes fixes how many steps a workload's streams hold. warmCap allows
// the crash image to grow past w.warm until its unreplayed WAL suffix
// reaches its target (see buildImage); measured covers the window.
func (w *workload) sizes(sc scenario.Scenario, seconds, scale float64) (warm, warmCap, measured int) {
	warm = int(math.Round(float64(w.warm) * scale))
	if warm < 2*reorderWindow {
		warm = 2 * reorderWindow
	}
	warmCap = warm + checkpointEvery/len(sc.Sensors) + 2
	rate := w.rate
	if !w.openLoop {
		rate = w.maxRate
	}
	measured = int(math.Ceil(rate*seconds)) + 1
	return warm, warmCap, measured
}

// generate builds each zone's stream from the seed, before any timing
// starts. Scenario C's sensor layout is fixed; the seed drives the
// counts and the delivery order, so every seed costs the same work.
func (w *workload) generate(sc scenario.Scenario, seed uint64, steps int) []zoneStream {
	out := make([]zoneStream, len(w.zones))
	for zi, name := range w.zones {
		measure := rng.NewNamed(seed, "bench/"+w.name+"/"+name+"/measure")
		var plan network.Plan
		if sc.OutOfOrder {
			plan = network.OutOfOrder(len(sc.Sensors), steps, rng.NewNamed(seed, "bench/"+w.name+"/"+name+"/delivery"),
				network.Options{MeanLatency: sc.MeanLatency})
		} else {
			plan = network.InOrder(len(sc.Sensors), steps)
		}
		zs := zoneStream{zone: name, steps: make([]step, steps)}
		for s := 0; s < steps; s++ {
			var all []transport.Reading
			for _, ev := range plan.EventsInStep(s) {
				sen := sc.Sensors[ev.SensorIndex]
				m := sen.Measure(measure, sc.Sources, sc.Obstacles, ev.EmitStep)
				all = append(all, transport.Reading{SensorID: sen.ID, CPM: m.CPM, Step: ev.EmitStep, Seq: uint64(ev.EmitStep) + 1})
			}
			if w.perReading {
				for i := range all {
					zs.steps[s] = append(zs.steps[s], all[i:i+1])
				}
			} else {
				zs.steps[s] = step{all}
			}
		}
		out[zi] = zs
	}
	return out
}

// maxSeq is the newest sequence round among the readings of steps.
func maxSeq(steps []step) uint64 {
	var m uint64
	for _, st := range steps {
		for _, b := range st {
			for _, r := range b {
				if r.Seq > m {
					m = r.Seq
				}
			}
		}
	}
	return m
}
