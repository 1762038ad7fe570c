package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"syscall"
	"time"

	"radloc/internal/clock"
	"radloc/internal/eval"
	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/report"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/sim"
	"radloc/internal/transport"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// walSink journals every admitted reading into a WAL, the same
// write-ahead discipline radlocd's durable path uses — here on an
// injected faulty filesystem, so a failing append surfaces through
// fusion.JournalError as an HTTP 507 to the agent.
type walSink struct {
	log *wal.Log
}

// Append implements fusion.Journal.
func (s *walSink) Append(m fusion.Meas) error {
	_, err := s.log.Append(m)
	return err
}

// windowFaultRT opens and closes a disk-fault window on the server's
// filesystem keyed to virtual time: every request passing through
// first aligns the injector with the window, so a "30 s" outage is
// exact on the fake clock and costs microseconds of wall time.
type windowFaultRT struct {
	inner    http.RoundTripper
	clk      *clock.Fake
	faulty   *vfs.Faulty
	from, to time.Time
}

func (w *windowFaultRT) RoundTrip(req *http.Request) (*http.Response, error) {
	w.align()
	return w.inner.RoundTrip(req)
}

// align arms the injector while the fake clock is inside the window
// and heals it outside.
func (w *windowFaultRT) align() {
	now := w.clk.Now()
	if w.to.After(w.from) && !now.Before(w.from) && now.Before(w.to) {
		w.faulty.FailWrites(syscall.ENOSPC, false)
		w.faulty.FailSyncs(syscall.ENOSPC)
	} else {
		w.faulty.Heal()
	}
}

// ablateStorage sweeps disk-fault conditions over Scenario A with the
// full durability pipeline engaged: agent spool → transport client →
// HTTP admission → fusion engine journaling into a WAL on a seeded
// faulty filesystem. An ENOSPC window turns every admission into a
// 507 + Retry-After, which the spooled agent rides out; flaky and
// torn writes fail individual appends, which the client retries and
// the sequence gate dedups. Each row then simulates a crash-restart:
// the WAL is reopened cold and replayed, and durable_frac compares
// what recovery finds against what the engine acknowledged — the
// no-acked-record-lost invariant. Every condition should hold
// delivered_frac and durable_frac at 1.0; the faults cost latency and
// 507 round-trips, never data.
func ablateStorage(w io.Writer, cf commonFlags) error {
	tb := report.NewTable(
		"Ablation: storage faults (Scenario A; spooled agent vs faulty server disk; durable_frac = records surviving a crash-restart / records acknowledged)",
		"condition", "delivered_frac", "http_507", "faults_injected", "durable_frac", "mean_err")
	conds := []struct {
		name      string
		window    time.Duration
		writeProb float64
		torn      bool
	}{
		{"clean", 0, 0, false},
		{"enospc 10s", 10 * time.Second, 0, false},
		{"enospc 30s", 30 * time.Second, 0, false},
		{"flaky writes 5%", 0, 0.05, false},
		{"flaky+torn 5%", 0, 0.05, true},
	}
	for _, c := range conds {
		var fracSum, errSum, s507Sum, faultSum, durSum float64
		n := 0
		for rep := 0; rep < cf.reps; rep++ {
			res, err := runStorageTrial(c.window, c.writeProb, c.torn, cf.steps, cf.seed+uint64(rep))
			if err != nil {
				return err
			}
			fracSum += res.deliveredFrac
			s507Sum += float64(res.shed507)
			faultSum += float64(res.faults)
			durSum += res.durableFrac
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
		if err := tb.AddRow(c.name, fracSum/reps, s507Sum/reps, faultSum/reps, durSum/reps, meanErr); err != nil {
			return err
		}
	}
	return tb.WriteCSV(w)
}

type storageTrialResult struct {
	deliveredFrac float64
	shed507       uint64
	faults        uint64
	durableFrac   float64
	meanErr       float64
}

// runStorageTrial delivers one sequenced Scenario A stream through a
// spooled transport client into a WAL-journaling ingest stack whose
// disk injects the given faults, then replays the WAL cold to score
// durability.
func runStorageTrial(window time.Duration, writeProb float64, torn bool, steps int, seed uint64) (storageTrialResult, error) {
	sc := scenario.A(50, false)
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))

	walDir, err := os.MkdirTemp("", "radloc-ablate-wal-*")
	if err != nil {
		return storageTrialResult{}, err
	}
	defer os.RemoveAll(walDir)
	fcfg := vfs.FaultConfig{Seed: seed, WriteErrProb: writeProb, WriteErr: syscall.EIO, Clock: clk}
	if torn {
		fcfg.TornWriteProb = writeProb
	}
	faulty := vfs.NewFaulty(nil, fcfg)
	log, _, err := wal.Open(walDir, wal.Options{FS: faulty})
	if err != nil {
		return storageTrialResult{}, err
	}
	sink := &walSink{log: log}

	ecfg := fusion.Config{Localizer: sim.LocalizerConfig(sc), Sensors: sc.Sensors, Journal: sink}
	ecfg.Localizer.Seed = seed
	engine, err := fusion.NewEngine(ecfg)
	if err != nil {
		return storageTrialResult{}, err
	}
	const retryAfter = time.Second
	zones, ing, err := defaultZoneIngest(engine, httpingest.Options{QueueDepth: 256, Clock: clk, RetryAfter: retryAfter})
	if err != nil {
		return storageTrialResult{}, err
	}
	defer zones.Close()

	// The window opens at t=0: the drain starts against a full disk,
	// backs off through 507 + Retry-After (each retry advances the fake
	// clock), and only once `window` of virtual time has passed does
	// the disk heal and the spool empty.
	start := clk.Now()
	rt := &windowFaultRT{
		inner: localRT{ing}, clk: clk, faulty: faulty,
		from: start, to: start.Add(window),
	}
	client, err := transport.NewClient(transport.Options{
		URL:       "http://fusion",
		HTTP:      rt,
		Clock:     clk,
		RNG:       rng.NewNamed(seed, "ablate/storage-jitter"),
		BatchSize: 12,
		Backoff:   transport.Backoff{Base: 100 * time.Millisecond, Cap: time.Second},
		Breaker:   transport.BreakerConfig{FailureThreshold: 4, Cooldown: 2 * time.Second},
	})
	if err != nil {
		return storageTrialResult{}, err
	}

	measure := rng.NewNamed(seed, "ablate/storage-measure")
	spoolDir, err := os.MkdirTemp("", "radloc-ablate-spool-*")
	if err != nil {
		return storageTrialResult{}, err
	}
	defer os.RemoveAll(spoolDir)
	sp, err := transport.OpenSpool(spoolDir, transport.SpoolOptions{})
	if err != nil {
		return storageTrialResult{}, err
	}
	defer sp.Close()
	total := 0
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(measure, sc.Sources, nil, step)
			if _, err := sp.Append(transport.Reading{
				SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1),
			}); err != nil {
				return storageTrialResult{}, err
			}
			total++
		}
	}
	if _, err := client.Drain(context.Background(), sp); err != nil {
		return storageTrialResult{}, err
	}
	// A write fault can land mid-flush — probabilistic, or the ENOSPC
	// window still open because every reading of a short stream sat in
	// the gate while it drained. The gate keeps the unjournaled
	// remainder held, so retrying is lossless; like the agent answering
	// a 507, each retry first waits out the Retry-After on the fake
	// clock, which lets the window close.
	flush := func(e *fusion.Engine) error {
		_, err := e.FlushPending()
		return err
	}
	flushed := false
	for i := 0; i < 1000; i++ {
		if _, err := onDefaultZone(zones, flush); err == nil {
			flushed = true
			break
		}
		clk.Advance(retryAfter)
		rt.align()
	}
	if !flushed {
		return storageTrialResult{}, fmt.Errorf("flush never succeeded under fault rate %g", writeProb)
	}
	z, err := onDefaultZone(zones, (*fusion.Engine).Settle)
	if err != nil {
		return storageTrialResult{}, err
	}
	s := z.Snapshot()
	match := eval.Match(s.Estimates, sc.Sources, sc.Params.MatchRadius)

	// Crash-restart: close the log (faults healed first, so the close
	// itself succeeds), reopen it cold on the real filesystem, and
	// count what replay recovers. Every journaled record must be there.
	faulty.Heal()
	stats := faulty.Stats()
	if err := zones.Close(); err != nil {
		return storageTrialResult{}, err
	}
	if err := log.Close(); err != nil {
		return storageTrialResult{}, err
	}
	relog, _, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return storageTrialResult{}, err
	}
	var replayed uint64
	if err := relog.Replay(0, func(off uint64, rec wal.Record) error {
		replayed++
		return nil
	}); err != nil {
		return storageTrialResult{}, err
	}
	if err := relog.Close(); err != nil {
		return storageTrialResult{}, err
	}
	durable := 1.0
	if s.Journaled > 0 {
		durable = float64(replayed) / float64(s.Journaled)
	}
	if replayed < s.Journaled {
		return storageTrialResult{}, fmt.Errorf("acked records lost: journaled %d, recovered %d", s.Journaled, replayed)
	}
	return storageTrialResult{
		deliveredFrac: float64(s.Ingested) / float64(total),
		shed507:       ing.Stats().Shed507,
		faults:        stats.Writes + stats.Syncs + stats.Reads,
		durableFrac:   durable,
		meanErr:       match.MeanError(),
	}, nil
}
