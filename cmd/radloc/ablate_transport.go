package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"radloc/internal/clock"
	"radloc/internal/core"
	"radloc/internal/eval"
	"radloc/internal/fusion"
	"radloc/internal/geometry"
	"radloc/internal/netchaos"
	"radloc/internal/node"
	"radloc/internal/report"
	"radloc/internal/rng"
	"radloc/internal/scenario"
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

// getJSON GETs path from the node's API in-process and decodes the
// body.
func getJSON(n *node.Node, path string, v any) error {
	c := &ctlClient{http: &http.Client{Transport: localRT{n.Handler()}}}
	return c.get("http://node", path, v)
}

// nodeSnapshot is the part of GET /snapshot the ablations score.
type nodeSnapshot struct {
	Ingested  uint64                   `json:"ingested"`
	Journaled uint64                   `json:"journaled"`
	Delivery  fusion.DeliveryStats     `json:"delivery"`
	Estimates []struct{ X, Y float64 } `json:"estimates"`
}

// scoreNode reads the default zone's snapshot off the node's API and
// matches its estimates against the scenario's sources.
func scoreNode(n *node.Node, sc scenario.Scenario) (nodeSnapshot, eval.Matching, error) {
	var s nodeSnapshot
	if err := getJSON(n, "/snapshot", &s); err != nil {
		return s, eval.Matching{}, err
	}
	est := make([]core.Estimate, len(s.Estimates))
	for i, e := range s.Estimates {
		est[i].Pos = geometry.Vec{X: e.X, Y: e.Y}
	}
	return s, eval.Match(est, sc.Sources, sc.Params.MatchRadius), nil
}

// ablationReadings renders steps rounds of Scenario A readings, each
// stamped with its step and a per-sensor sequence number.
func ablationReadings(sc scenario.Scenario, steps int, measure *rng.Stream) []transport.Reading {
	var out []transport.Reading
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(measure, sc.Sources, nil, step)
			out = append(out, transport.Reading{
				SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1),
			})
		}
	}
	return out
}

// ablationClient is the agent's transport client, sending through rt
// on the fake clock.
func ablationClient(rt http.RoundTripper, clk *clock.Fake, jitter *rng.Stream, maxAttempts int) (*transport.Client, error) {
	return transport.NewClient(transport.Options{
		URL:         "http://fusion",
		HTTP:        rt,
		Clock:       clk,
		RNG:         jitter,
		BatchSize:   ablationBatch,
		MaxAttempts: maxAttempts,
		Backoff:     transport.Backoff{Base: 100 * time.Millisecond, Cap: time.Second},
		Breaker:     transport.BreakerConfig{FailureThreshold: 4, Cooldown: 2 * time.Second},
	})
}

// ablationBatch is the readings per POST the ablation clients send.
const ablationBatch = 12

// drainSpooled journals readings into a fresh on-disk spool and
// drains it through c: store-and-forward, retrying until the server
// has acknowledged every reading.
func drainSpooled(ctx context.Context, c *transport.Client, readings []transport.Reading) error {
	dir, err := os.MkdirTemp("", "radloc-ablate-spool-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sp, err := transport.OpenSpool(dir, transport.SpoolOptions{})
	if err != nil {
		return err
	}
	defer sp.Close()
	for _, m := range readings {
		if _, err := sp.Append(m); err != nil {
			return err
		}
	}
	_, err = c.Drain(ctx, sp)
	return err
}

// ablateTransport sweeps network loss rate × hard-partition duration
// × spooling over Scenario A, delivering the measurement stream
// through the real transport client (retries, backoff, breaker),
// the deterministic fault injector and into the node radlocd runs
// (node.New) — all on one fake clock, so a "30 s" partition
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
				var errs []float64
				var fracSum, fnSum, dupSum float64
				for rep := 0; rep < cf.reps; rep++ {
					res, err := runTransportTrial(loss, partition, spool, cf.steps, cf.seed+uint64(rep))
					if err != nil {
						return err
					}
					fracSum += res.deliveredFrac
					fnSum += float64(res.falseNeg)
					dupSum += float64(res.duplicates)
					errs = append(errs, res.meanErr)
				}
				reps := float64(cf.reps)
				label := "off"
				if spool {
					label = "on"
				}
				if err := tb.AddRow(loss, partition.Seconds(), label,
					fracSum/reps, meanWindow(errs, 0), fnSum/reps, dupSum/reps); err != nil {
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
// the fault injector into a node built by node.New and scores what its
// default zone ends up with.
func runTransportTrial(loss float64, partition time.Duration, spool bool, steps int, seed uint64) (transportTrialResult, error) {
	sc := scenario.A(50, false)
	n, err := node.New(node.Config{Scenario: sc, Seed: seed})
	if err != nil {
		return transportTrialResult{}, err
	}
	defer n.Shutdown()

	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
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
	rt := netchaos.New(localRT{n.Handler()}, ccfg)
	maxAttempts := 0 // spooled: retry forever
	if !spool {
		maxAttempts = 3 // no backing store: bounded fight, then drop
	}
	client, err := ablationClient(rt, clk, rng.NewNamed(seed, "ablate/transport-jitter"), maxAttempts)
	if err != nil {
		return transportTrialResult{}, err
	}

	readings := ablationReadings(sc, steps, rng.NewNamed(seed, "ablate/transport-measure"))
	total := len(readings)
	ctx := context.Background()
	if spool {
		if err := drainSpooled(ctx, client, readings); err != nil {
			return transportTrialResult{}, err
		}
	} else {
		for i := 0; i < total; i += ablationBatch {
			end := min(i+ablationBatch, total)
			err := client.Send(ctx, readings[i:end])
			if errors.Is(err, transport.ErrGaveUp) || errors.Is(err, transport.ErrRefused) {
				continue // the batch is gone; that loss is the experiment
			}
			if err != nil {
				return transportTrialResult{}, err
			}
		}
	}

	if err := n.Settle(ctx, zone.DefaultZone); err != nil {
		return transportTrialResult{}, err
	}
	s, match, err := scoreNode(n, sc)
	if err != nil {
		return transportTrialResult{}, err
	}
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
