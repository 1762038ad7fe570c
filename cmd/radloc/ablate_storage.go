package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"radloc/internal/clock"
	"radloc/internal/fusion"
	"radloc/internal/node"
	"radloc/internal/report"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/vfs"
	"radloc/internal/zone"
)

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
// the node radlocd runs (node.New: HTTP admission, write pipeline,
// degraded mode) journaling into a WAL on a seeded faulty filesystem.
// An ENOSPC window turns every admission into a 507 + Retry-After,
// which the spooled agent rides out; flaky and torn writes fail
// individual appends, which the client retries and the sequence gate
// dedups. Each row then simulates a crash-restart: a second node
// boots on a copy of the live WAL directory and replays it cold, and
// durable_frac compares what recovery finds against what the first
// node acknowledged — the no-acked-record-lost invariant. Every condition should hold
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
		var errs []float64
		var fracSum, s507Sum, faultSum, durSum float64
		for rep := 0; rep < cf.reps; rep++ {
			res, err := runStorageTrial(c.window, c.writeProb, c.torn, cf.steps, cf.seed+uint64(rep))
			if err != nil {
				return err
			}
			fracSum += res.deliveredFrac
			s507Sum += float64(res.shed507)
			faultSum += float64(res.faults)
			durSum += res.durableFrac
			errs = append(errs, res.meanErr)
		}
		reps := float64(cf.reps)
		if err := tb.AddRow(c.name, fracSum/reps, s507Sum/reps, faultSum/reps, durSum/reps, meanWindow(errs, 0)); err != nil {
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
// spooled transport client into a node built by node.New, whose WAL
// disk injects the given faults, then boots a second node on the WAL
// as a crash left it to score durability.
func runStorageTrial(window time.Duration, writeProb float64, torn bool, steps int, seed uint64) (storageTrialResult, error) {
	sc := scenario.A(50, false)
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))

	walDir, err := os.MkdirTemp("", "radloc-ablate-wal-*")
	if err != nil {
		return storageTrialResult{}, err
	}
	defer os.RemoveAll(walDir)
	fcfg := vfs.FaultConfig{Seed: seed, WriteErrProb: writeProb, WriteErr: syscall.EIO}
	if torn {
		fcfg.TornWriteProb = writeProb
	}
	faulty := vfs.NewFaulty(nil, fcfg)
	const retryAfter = time.Second
	n, err := node.New(node.Config{
		Scenario: sc, Seed: seed,
		WALDir: walDir, FS: faulty, CheckpointEvery: 0,
		RetryAfter: retryAfter,
	})
	if err != nil {
		return storageTrialResult{}, err
	}
	// The final checkpoint Shutdown writes may meet an injected fault;
	// what is scored is the crash image taken before it.
	defer n.Shutdown()

	// The window opens at t=0: the drain starts against a full disk,
	// backs off through 507 + Retry-After (each retry advances the fake
	// clock), and only once `window` of virtual time has passed does
	// the disk heal and the spool empty.
	start := clk.Now()
	rt := &windowFaultRT{
		inner: localRT{n.Handler()}, clk: clk, faulty: faulty,
		from: start, to: start.Add(window),
	}
	client, err := ablationClient(rt, clk, rng.NewNamed(seed, "ablate/storage-jitter"), 0)
	if err != nil {
		return storageTrialResult{}, err
	}
	readings := ablationReadings(sc, steps, rng.NewNamed(seed, "ablate/storage-measure"))
	ctx := context.Background()
	if err := drainSpooled(ctx, client, readings); err != nil {
		return storageTrialResult{}, err
	}
	// A write fault can land in the settle's flush — probabilistic, or
	// the ENOSPC window still open because every reading of a short
	// stream sat in the gate while it drained. The gate keeps the
	// unjournaled remainder held, so retrying is lossless; like the
	// agent answering a 507, each retry first waits out the Retry-After
	// on the fake clock, which lets the window close.
	for tries := 0; n.Settle(ctx, zone.DefaultZone) != nil; tries++ {
		if tries == 1000 {
			return storageTrialResult{}, fmt.Errorf("settle never succeeded under fault rate %g", writeProb)
		}
		clk.Advance(retryAfter)
		rt.align()
	}
	s, match, err := scoreNode(n, sc)
	if err != nil {
		return storageTrialResult{}, err
	}
	var st nodeStatez
	if err := getJSON(n, "/statez", &st); err != nil {
		return storageTrialResult{}, err
	}
	faults := faulty.Stats()

	// Crash-restart: copy the live WAL directory — the state kill -9
	// leaves, with no checkpoint on disk — and boot a second node on
	// the copy over the real filesystem. Its recovery replays the WAL
	// cold; every journaled record must be there.
	crashDir, err := os.MkdirTemp("", "radloc-ablate-crash-*")
	if err != nil {
		return storageTrialResult{}, err
	}
	defer os.RemoveAll(crashDir)
	if err := copyFiles(walDir, crashDir); err != nil {
		return storageTrialResult{}, err
	}
	rebooted, err := node.New(node.Config{Scenario: sc, Seed: seed, WALDir: crashDir})
	if err != nil {
		return storageTrialResult{}, err
	}
	var rst nodeStatez
	err = getJSON(rebooted, "/statez", &rst)
	if serr := rebooted.Shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return storageTrialResult{}, err
	}
	replayed := rst.Durability.Recovery.Replayed
	durable := 1.0
	if s.Journaled > 0 {
		durable = float64(replayed) / float64(s.Journaled)
	}
	if replayed < s.Journaled {
		return storageTrialResult{}, fmt.Errorf("acked records lost: journaled %d, recovered %d", s.Journaled, replayed)
	}
	return storageTrialResult{
		deliveredFrac: float64(s.Ingested) / float64(len(readings)),
		shed507:       st.Ingress.Shed507,
		faults:        faults.Writes + faults.Syncs + faults.Reads,
		durableFrac:   durable,
		meanErr:       match.MeanError(),
	}, nil
}

// nodeStatez is the part of GET /statez the storage ablation reads.
type nodeStatez struct {
	Ingress    fusion.IngressStats `json:"ingress"`
	Durability struct {
		Recovery struct {
			Replayed uint64 `json:"replayed"`
		} `json:"recovery"`
	} `json:"durability"`
}

// copyFiles copies the regular files of src into dst.
func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
