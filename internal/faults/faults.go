// Package faults injects sensor malfunctions into measurement streams.
// The paper's evaluation stresses only network pathologies (message
// loss, out-of-order delivery, Scenario C); real deployments also see
// stuck detectors, calibration drift, intermittent dropouts, burst
// noise, and spoofed readings. This package models those as composable
// per-sensor fault specs applied by a deterministic, seeded Injector,
// so every chaos experiment is exactly reproducible regardless of the
// order in which messages are generated or delivered.
//
// Determinism contract: the randomness behind a reading's fault is a
// pure function of (injector seed, sensor index, emit step). Two
// injectors with the same seed and specs transform the same reading
// identically even when trials run concurrently or plans reorder
// deliveries.
package faults

import (
	"fmt"
	"math"

	"radloc/internal/rng"
)

// Kind classifies a sensor fault model.
type Kind int

// Fault kinds.
const (
	// StuckAt replaces every reading with a constant CPM (ADC failure,
	// saturated or shorted counter).
	StuckAt Kind = iota + 1
	// Drift multiplies readings by a gain ramp 1 + Gain·(step−StartStep),
	// modelling calibration drift of the counting efficiency.
	Drift
	// Dropout loses each reading independently with probability Prob
	// (flaky radio, brown-outs). Prob = 1 is a dead sensor.
	Dropout
	// Burst adds BurstCPM counts with probability Prob (electrical
	// interference, cosmic-ray showers).
	Burst
	// Byzantine replaces readings with uniform spoofed values in
	// [0, MaxCPM] — an adversarial or wildly miscounting sensor.
	Byzantine
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case StuckAt:
		return "stuck-at"
	case Drift:
		return "drift"
	case Dropout:
		return "dropout"
	case Burst:
		return "burst"
	case Byzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultByzantineCeiling is the spoof range used when a Byzantine spec
// leaves MaxCPM unset.
const DefaultByzantineCeiling = 2000

// Spec attaches one fault model to one sensor. Multiple specs may
// target the same sensor; they compose in slice order.
type Spec struct {
	// Sensor is the index of the afflicted sensor.
	Sensor int
	// Kind selects the fault model.
	Kind Kind
	// StartStep is the onset time step; readings emitted earlier are
	// unaffected (0 = faulty from the start).
	StartStep int

	// StuckCPM is the constant reading under StuckAt.
	StuckCPM int
	// Gain is the per-step gain increment under Drift: a reading at
	// step t becomes reading·(1 + Gain·(t−StartStep)), floored at 0.
	Gain float64
	// Prob is the per-reading probability for Dropout and Burst.
	Prob float64
	// BurstCPM is the count added during a Burst event.
	BurstCPM int
	// MaxCPM bounds Byzantine spoofed readings (default
	// DefaultByzantineCeiling).
	MaxCPM int
}

// Validate checks the spec against the deployment size.
func (s Spec) Validate(numSensors int) error {
	if s.Sensor < 0 || s.Sensor >= numSensors {
		return fmt.Errorf("faults: spec targets sensor %d of %d", s.Sensor, numSensors)
	}
	if s.StartStep < 0 {
		return fmt.Errorf("faults: spec has negative start step %d", s.StartStep)
	}
	switch s.Kind {
	case StuckAt:
		if s.StuckCPM < 0 {
			return fmt.Errorf("faults: stuck-at spec has negative CPM %d", s.StuckCPM)
		}
	case Drift:
		if math.IsNaN(s.Gain) || math.IsInf(s.Gain, 0) {
			return fmt.Errorf("faults: drift spec has non-finite gain")
		}
	case Dropout, Burst:
		if s.Prob < 0 || s.Prob > 1 || math.IsNaN(s.Prob) {
			return fmt.Errorf("faults: %s spec has probability %v outside [0,1]", s.Kind, s.Prob)
		}
		if s.Kind == Burst && s.BurstCPM < 0 {
			return fmt.Errorf("faults: burst spec has negative burst CPM %d", s.BurstCPM)
		}
	case Byzantine:
		if s.MaxCPM < 0 {
			return fmt.Errorf("faults: byzantine spec has negative ceiling %d", s.MaxCPM)
		}
	default:
		return fmt.Errorf("faults: spec has unknown kind %d", int(s.Kind))
	}
	return nil
}

// Injector applies a fault plan deterministically. A nil *Injector is
// valid and passes every reading through untouched.
type Injector struct {
	seed  uint64
	table [][]Spec // specs per sensor index
}

// NewInjector validates the specs and builds an injector for a
// deployment of numSensors sensors.
func NewInjector(numSensors int, seed uint64, specs []Spec) (*Injector, error) {
	if numSensors < 1 {
		return nil, fmt.Errorf("faults: %d sensors", numSensors)
	}
	in := &Injector{seed: seed, table: make([][]Spec, numSensors)}
	for i, s := range specs {
		if err := s.Validate(numSensors); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		in.table[s.Sensor] = append(in.table[s.Sensor], s)
	}
	return in, nil
}

// splitmix64 finalizer: decorrelates nearby seeds/indices/steps.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// streamFor derives the one-shot stream for a (sensor, step) pair.
// salt separates the delivery decision from value transforms so the
// two never consume each other's draws.
func (in *Injector) streamFor(sensor, step int, salt uint64) *rng.Stream {
	return rng.New(mix(in.seed^mix(uint64(sensor))), mix(uint64(step)*2+salt))
}

const (
	saltDeliver = 0
	saltValue   = 1
)

// Delivered reports whether the sensor's reading at the given emit
// step reaches the fusion center (false = lost to a Dropout fault).
func (in *Injector) Delivered(sensor, step int) bool {
	if in == nil || sensor < 0 || sensor >= len(in.table) {
		return true
	}
	var stream *rng.Stream
	for _, s := range in.table[sensor] {
		if s.Kind != Dropout || step < s.StartStep {
			continue
		}
		if stream == nil {
			stream = in.streamFor(sensor, step, saltDeliver)
		}
		if stream.Float64() < s.Prob {
			return false
		}
	}
	return true
}

// Transform applies the sensor's value-level faults (StuckAt, Drift,
// Burst, Byzantine) to one reading. Dropout is handled by Delivered.
func (in *Injector) Transform(sensor, step, cpm int) int {
	if in == nil || sensor < 0 || sensor >= len(in.table) {
		return cpm
	}
	var stream *rng.Stream
	for _, s := range in.table[sensor] {
		if step < s.StartStep {
			continue
		}
		switch s.Kind {
		case StuckAt:
			cpm = s.StuckCPM
		case Drift:
			factor := 1 + s.Gain*float64(step-s.StartStep)
			if factor < 0 {
				factor = 0
			}
			cpm = int(math.Round(float64(cpm) * factor))
		case Burst:
			if stream == nil {
				stream = in.streamFor(sensor, step, saltValue)
			}
			if stream.Float64() < s.Prob {
				cpm += s.BurstCPM
			}
		case Byzantine:
			if stream == nil {
				stream = in.streamFor(sensor, step, saltValue)
			}
			ceiling := s.MaxCPM
			if ceiling == 0 {
				ceiling = DefaultByzantineCeiling
			}
			cpm = stream.IntN(ceiling + 1)
		}
	}
	if cpm < 0 {
		cpm = 0
	}
	return cpm
}
