package core

import (
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

// warmLocalizer returns a localizer that has converged on two sources,
// matching the steady state the paper times. A non-nil movement model
// makes it a tracking filter that displaces particles on every reading.
func warmLocalizer(b *testing.B, particles int, movement MovementModel) (*Localizer, []sensor.Sensor, []radiation.Source, *rng.Stream) {
	b.Helper()
	cfg := Config{
		Bounds:       geometry.NewRect(geometry.V(0, 0), geometry.V(100, 100)),
		NumParticles: particles,
		Seed:         1,
		Movement:     movement,
	}
	l, err := NewLocalizer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sources := []radiation.Source{
		{Pos: geometry.V(47, 71), Strength: 50},
		{Pos: geometry.V(81, 42), Strength: 50},
	}
	sensors := sensor.Grid(cfg.Bounds, 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(1, "bench/core")
	for step := 0; step < 3; step++ {
		for _, sen := range sensors {
			m := sen.Measure(stream, sources, nil, step)
			l.Ingest(sen, m.CPM)
		}
	}
	return l, sensors, sources, stream
}

// BenchmarkIngest times one reading on a static filter and, in the
// -walk cases, on one whose random-walk movement model re-files every
// displaced particle in the grid.
func BenchmarkIngest(b *testing.B) {
	for _, particles := range []int{2000, 15000} {
		for _, walk := range []bool{false, true} {
			name, movement := benchName(particles), MovementModel(nil)
			if walk {
				name, movement = name+"-walk", RandomWalk{Sigma: 1}
			}
			b.Run(name, func(b *testing.B) {
				l, sensors, sources, stream := warmLocalizer(b, particles, movement)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sen := sensors[i%len(sensors)]
					m := sen.Measure(stream, sources, nil, 3)
					l.Ingest(sen, m.CPM)
				}
			})
		}
	}
}

func BenchmarkEstimates(b *testing.B) {
	for _, particles := range []int{2000, 15000} {
		b.Run(benchName(particles), func(b *testing.B) {
			l, _, _, _ := warmLocalizer(b, particles, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = l.Estimates()
			}
		})
	}
}

func BenchmarkParticlesSnapshot(b *testing.B) {
	l, _, _, _ := warmLocalizer(b, 15000, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Particles()
	}
}

func BenchmarkAppendParticles(b *testing.B) {
	l, _, _, _ := warmLocalizer(b, 15000, nil)
	var buf []Particle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = l.AppendParticles(buf[:0])
	}
	_ = buf
}

func benchName(particles int) string {
	if particles >= 1000 {
		return "p" + itoa(particles/1000) + "k"
	}
	return "p" + itoa(particles)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
