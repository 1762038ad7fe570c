package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"radloc/internal/clock"
	"radloc/internal/eval"
	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/netchaos"
	"radloc/internal/report"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/sim"
	"radloc/internal/transport"
	"radloc/internal/zone"
)

// localRT serves HTTP requests in-process against a handler, so the
// full agent→server transport stack runs with no sockets and every
// fault comes from the seeded injector.
type localRT struct{ h http.Handler }

func (l localRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// defaultZoneIngest builds the daemon's admission path over one
// engine: a zone manager that owns it as the default zone, behind the
// HTTP ingest handler. Other zone names are refused. The caller closes
// the manager.
func defaultZoneIngest(engine *fusion.Engine, opts httpingest.Options) (*zone.Manager, *httpingest.Handler, error) {
	m, err := zone.NewManager(zone.Options{Factory: func(name string) (zone.Resources, error) {
		if name != zone.DefaultZone {
			return zone.Resources{}, fmt.Errorf("only the default zone is served, not %q", name)
		}
		return zone.Resources{Engine: engine}, nil
	}})
	if err != nil {
		return nil, nil, err
	}
	return m, httpingest.New(m.Submit, opts), nil
}

// onDefaultZone runs fn on the default zone's event loop: the
// engine's owner, so fn may use the engine freely.
func onDefaultZone(m *zone.Manager, fn func(*fusion.Engine) error) (*zone.Zone, error) {
	z, err := m.Get(zone.DefaultZone)
	if err != nil {
		return nil, err
	}
	return z, z.Do(context.Background(), fn)
}

// ablateTransport sweeps network loss rate × hard-partition duration
// × spooling over Scenario A, delivering the measurement stream
// through the real transport client (retries, backoff, breaker),
// the deterministic fault injector and the real HTTP admission path
// into a fusion engine — all on one fake clock, so a "30 s" partition
// costs microseconds. The question each row answers: how much data
// survives the network, and what does the surviving fraction cost in
// localization error? With the spool the delivered fraction should
// pin to 1.0 regardless of the fault pattern (partitions cost
// latency, not data); without it, MaxAttempts bounds how long a batch
// is fought for and losses show up as error and missed sources.
func ablateTransport(w io.Writer, cf commonFlags) error {
	tb := report.NewTable(
		"Ablation: transport faults (Scenario A; spooled = store-and-forward + retry forever, unspooled = 3 attempts then drop)",
		"loss", "partition_s", "spool", "delivered_frac", "mean_err", "false_neg", "duplicates")
	for _, loss := range []float64{0, 0.3, 0.6} {
		for _, partition := range []time.Duration{0, 10 * time.Second, 30 * time.Second} {
			for _, spool := range []bool{true, false} {
				var fracSum, errSum, fnSum, dupSum float64
				n := 0
				for rep := 0; rep < cf.reps; rep++ {
					res, err := runTransportTrial(loss, partition, spool, cf.steps, cf.seed+uint64(rep))
					if err != nil {
						return err
					}
					fracSum += res.deliveredFrac
					fnSum += float64(res.falseNeg)
					dupSum += float64(res.duplicates)
					if !math.IsNaN(res.meanErr) {
						errSum += res.meanErr
						n++
					}
				}
				meanErr := math.NaN()
				if n > 0 {
					meanErr = errSum / float64(n)
				}
				reps := float64(cf.reps)
				label := "off"
				if spool {
					label = "on"
				}
				if err := tb.AddRow(loss, partition.Seconds(), label,
					fracSum/reps, meanErr, fnSum/reps, dupSum/reps); err != nil {
					return err
				}
			}
		}
	}
	return tb.WriteCSV(w)
}

type transportTrialResult struct {
	deliveredFrac float64
	meanErr       float64
	falseNeg      int
	duplicates    uint64
}

// runTransportTrial delivers one sequenced Scenario A stream through
// the fault injector into a live ingest handler and scores what the
// engine ends up with.
func runTransportTrial(loss float64, partition time.Duration, spool bool, steps int, seed uint64) (transportTrialResult, error) {
	sc := scenario.A(50, false)
	fcfg := fusion.Config{Localizer: sim.LocalizerConfig(sc), Sensors: sc.Sensors}
	fcfg.Localizer.Seed = seed
	engine, err := fusion.NewEngine(fcfg)
	if err != nil {
		return transportTrialResult{}, err
	}
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	zones, ing, err := defaultZoneIngest(engine, httpingest.Options{QueueDepth: 256, Clock: clk})
	if err != nil {
		return transportTrialResult{}, err
	}
	defer zones.Close()

	ccfg := netchaos.Config{
		Seed:         seed,
		Clock:        clk,
		DropProb:     loss,
		RespDropProb: loss / 4, // a slice of the loss hits the ack path: duplicates
		Latency:      30 * time.Millisecond,
		Jitter:       15 * time.Millisecond,
	}
	if partition > 0 {
		ccfg.Partitions = []netchaos.Window{{From: 300 * time.Millisecond, To: 300*time.Millisecond + partition}}
	}
	rt := netchaos.New(localRT{ing}, ccfg)

	opts := transport.Options{
		URL:       "http://fusion",
		HTTP:      rt,
		Clock:     clk,
		RNG:       rng.NewNamed(seed, "ablate/transport-jitter"),
		BatchSize: 12,
		Backoff:   transport.Backoff{Base: 100 * time.Millisecond, Cap: time.Second},
		Breaker:   transport.BreakerConfig{FailureThreshold: 4, Cooldown: 2 * time.Second},
	}
	if !spool {
		opts.MaxAttempts = 3 // no backing store: bounded fight, then drop
	}
	client, err := transport.NewClient(opts)
	if err != nil {
		return transportTrialResult{}, err
	}

	measure := rng.NewNamed(seed, "ablate/transport-measure")
	var readings []transport.Reading
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(measure, sc.Sources, nil, step)
			readings = append(readings, transport.Reading{
				SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1),
			})
		}
	}
	total := len(readings)

	ctx := context.Background()
	if spool {
		dir, err := os.MkdirTemp("", "radloc-ablate-spool-*")
		if err != nil {
			return transportTrialResult{}, err
		}
		defer os.RemoveAll(dir)
		sp, err := transport.OpenSpool(dir, transport.SpoolOptions{})
		if err != nil {
			return transportTrialResult{}, err
		}
		defer sp.Close()
		for _, m := range readings {
			if _, err := sp.Append(m); err != nil {
				return transportTrialResult{}, err
			}
		}
		if _, err := client.Drain(ctx, sp); err != nil {
			return transportTrialResult{}, err
		}
	} else {
		for i := 0; i < total; i += opts.BatchSize {
			end := i + opts.BatchSize
			if end > total {
				end = total
			}
			err := client.Send(ctx, readings[i:end])
			if errors.Is(err, transport.ErrGaveUp) || errors.Is(err, transport.ErrRefused) {
				continue // the batch is gone; that loss is the experiment
			}
			if err != nil {
				return transportTrialResult{}, err
			}
		}
	}

	z, err := onDefaultZone(zones, (*fusion.Engine).Settle)
	if err != nil {
		return transportTrialResult{}, err
	}
	s := z.Snapshot()
	match := eval.Match(s.Estimates, sc.Sources, sc.Params.MatchRadius)
	if s.Ingested > uint64(total) {
		return transportTrialResult{}, fmt.Errorf("double-apply: ingested %d of %d", s.Ingested, total)
	}
	return transportTrialResult{
		deliveredFrac: float64(s.Ingested) / float64(total),
		meanErr:       match.MeanError(),
		falseNeg:      match.FalseNeg,
		duplicates:    s.Delivery.Duplicates,
	}, nil
}
