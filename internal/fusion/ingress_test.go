package fusion

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/track"
	"radloc/internal/wal"
)

// seqStream renders a sequence-stamped measurement stream for Scenario
// A: one reading per sensor per step, Seq = step+1.
func seqStream(t *testing.T, sc scenario.Scenario, steps int, seed uint64) []Meas {
	t.Helper()
	stream := rng.NewNamed(seed, "ingress-test/measure")
	var out []Meas
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			out = append(out, Meas{SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1)})
		}
	}
	return out
}

func seqEngine(t *testing.T, window int) (*Engine, scenario.Scenario) {
	t.Helper()
	sc := scenario.A(50, false)
	cfg := ScenarioConfig(sc, 5)
	cfg.Tracking = &track.Config{}
	cfg.ReorderWindow = window
	cfg.Localizer.Workers = 2
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, sc
}

// comparable strips the volatile delivery counters from a snapshot and
// canonicalizes NaN health residuals (NaN ≠ NaN under DeepEqual): the
// invariant under redelivery and reordering is that the FILTER state
// matches, while the gate's own counters necessarily differ.
func comparable(s Snapshot) Snapshot {
	s.Delivery = DeliveryStats{}
	s.Journaled = 0
	s.Health = append([]SensorHealth(nil), s.Health...)
	for i := range s.Health {
		if math.IsNaN(s.Health[i].LastZ) {
			s.Health[i].LastZ = math.Inf(-1)
		}
	}
	return s
}

// TestIngestSeqDuplicateAndReorderEquivalence is the delivery
// acceptance criterion: each record delivered twice, shuffled within
// the reorder window, must yield the exact engine state of exactly-
// once in-order delivery.
func TestIngestSeqDuplicateAndReorderEquivalence(t *testing.T) {
	clean, sc := seqEngine(t, 4)
	messy, _ := seqEngine(t, 4)
	stream := seqStream(t, sc, 10, 3)

	for _, m := range stream {
		if _, err := clean.IngestSeq(m); err != nil {
			t.Fatalf("clean ingest: %v", err)
		}
	}
	if _, err := clean.FlushPending(); err != nil {
		t.Fatal(err)
	}

	// Duplicate every record, then shuffle within a span much smaller
	// than one watermark window so order is always recoverable.
	doubled := make([]Meas, 0, 2*len(stream))
	for _, m := range stream {
		doubled = append(doubled, m, m)
	}
	shuffle := rng.NewNamed(17, "ingress-test/shuffle")
	const span = 10
	for i := range doubled {
		j := i + shuffle.IntN(span)
		if j >= len(doubled) {
			j = len(doubled) - 1
		}
		doubled[i], doubled[j] = doubled[j], doubled[i]
	}
	for _, m := range doubled {
		if _, err := messy.IngestSeq(m); err != nil && !errors.Is(err, ErrDuplicate) {
			t.Fatalf("messy ingest: %v", err)
		}
	}
	if _, err := messy.FlushPending(); err != nil {
		t.Fatal(err)
	}

	cs, ms := clean.Snapshot(), messy.Snapshot()
	if ms.Delivery.Duplicates != uint64(len(stream)) {
		t.Errorf("duplicates = %d, want %d", ms.Delivery.Duplicates, len(stream))
	}
	if ms.Delivery.OutOfOrder == 0 {
		t.Error("no out-of-order arrivals recorded despite shuffling")
	}
	if ms.Delivery.Pending != 0 || cs.Delivery.Pending != 0 {
		t.Errorf("pending after flush: clean %d, messy %d", cs.Delivery.Pending, ms.Delivery.Pending)
	}
	if cs.Ingested != uint64(len(stream)) {
		t.Errorf("clean ingested = %d, want %d", cs.Ingested, len(stream))
	}
	if !reflect.DeepEqual(comparable(cs), comparable(ms)) {
		t.Fatalf("engine state diverged under duplicate+reordered delivery:\nclean %+v\nmessy %+v", cs, ms)
	}
}

// TestIngestSeqDedup: the same sequence number is consumed exactly
// once, whether its first copy is already applied or still held.
func TestIngestSeqDedup(t *testing.T) {
	e, sc := seqEngine(t, 2)
	id := sc.Sensors[0].ID
	if n, err := e.IngestSeq(Meas{SensorID: id, CPM: 40, Seq: 1}); err != nil || n != 0 {
		t.Fatalf("first delivery buffered: n=%d err=%v", n, err)
	}
	// Redelivery while held.
	if _, err := e.IngestSeq(Meas{SensorID: id, CPM: 40, Seq: 1}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("held duplicate not suppressed: %v", err)
	}
	// Watermark passes round 1 (seq 3 with window 2), applying it.
	if n, err := e.IngestSeq(Meas{SensorID: id, CPM: 41, Seq: 3}); err != nil || n != 1 {
		t.Fatalf("watermark release: n=%d err=%v", n, err)
	}
	// Redelivery after application.
	for i := 0; i < 3; i++ {
		if _, err := e.IngestSeq(Meas{SensorID: id, CPM: 40, Seq: 1}); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("applied duplicate %d not suppressed: %v", i, err)
		}
	}
	s := e.Snapshot()
	if s.Ingested != 1 || s.Delivery.Duplicates != 4 {
		t.Errorf("ingested=%d duplicates=%d, want 1 and 4", s.Ingested, s.Delivery.Duplicates)
	}
}

// TestIngestSeqWatermarkRelease: rounds are held until the watermark
// passes, then applied in (round, sensor) order; a final flush drains
// the tail.
func TestIngestSeqWatermarkRelease(t *testing.T) {
	e, sc := seqEngine(t, 4)
	a, b := sc.Sensors[0].ID, sc.Sensors[1].ID
	// Round 1 arrives sensor-b-first; canonical release must still be
	// a-then-b.
	if n, _ := e.IngestSeq(Meas{SensorID: b, CPM: 44, Seq: 1}); n != 0 {
		t.Fatal("round applied before watermark")
	}
	if n, _ := e.IngestSeq(Meas{SensorID: a, CPM: 43, Seq: 1}); n != 0 {
		t.Fatal("round applied before watermark")
	}
	if got := e.Snapshot().Delivery.Pending; got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	// Seq 6 > window 4 + round 1 → round 1 released.
	n, err := e.IngestSeq(Meas{SensorID: a, CPM: 45, Seq: 6})
	if err != nil || n != 2 {
		t.Fatalf("watermark advance applied n=%d err=%v, want 2", n, err)
	}
	s := e.Snapshot()
	if s.Ingested != 2 || s.Delivery.Pending != 1 {
		t.Errorf("after release: ingested=%d pending=%d", s.Ingested, s.Delivery.Pending)
	}
	if n, err := e.FlushPending(); err != nil || n != 1 {
		t.Fatalf("final flush n=%d err=%v", n, err)
	}
	// A straggler behind the watermark is admitted immediately (late),
	// not dropped.
	if n, err := e.IngestSeq(Meas{SensorID: b, CPM: 46, Seq: 2}); err != nil || n != 1 {
		t.Fatalf("late straggler: n=%d err=%v", n, err)
	}
	s = e.Snapshot()
	if s.Delivery.Late != 1 {
		t.Errorf("late = %d, want 1", s.Delivery.Late)
	}
	if s.Delivery.GapSkips == 0 {
		t.Error("sensor a jumped seq 1→6 with no gap accounting")
	}
}

// TestIngestSeqSpoofedFlood: a flood of unregistered sensor IDs is
// refused at the gate's door — it must not park readings in the
// reorder buffer, grow the dedup-cursor map, or touch the filter. This
// is the memory bound that lets one process host many zones: a zone's
// per-sensor state is O(registered sensors) no matter what the wire
// carries.
func TestIngestSeqSpoofedFlood(t *testing.T) {
	e, sc := seqEngine(t, 4)
	flood := (4 + 1) * (len(sc.Sensors) + 1) * 3
	for i := 0; i < flood; i++ {
		n, err := e.IngestSeq(Meas{SensorID: 10_000 + i, CPM: 5, Seq: uint64(2 + i)})
		if n != 0 || !errors.Is(err, ErrUnknownSensor) {
			t.Fatalf("spoofed reading %d: n=%d err=%v, want 0, ErrUnknownSensor", i, n, err)
		}
	}
	s := e.Snapshot()
	if s.Delivery.Pending != 0 || s.Delivery.Buffered != 0 {
		t.Errorf("spoofed flood reached the reorder buffer: %+v", s.Delivery)
	}
	if len(e.gate.cursor) != 0 {
		t.Errorf("cursor map grew to %d entries from spoofed IDs", len(e.gate.cursor))
	}
	if s.Ingested != 0 || s.Rejected != uint64(flood) {
		t.Errorf("flood accounting: ingested=%d rejected=%d, want 0, %d", s.Ingested, s.Rejected, flood)
	}
}

// TestMaxSensors: registering past Config.MaxSensors fails with the
// typed ErrSensorLimit.
func TestMaxSensors(t *testing.T) {
	sc := scenario.A(50, false)
	cfg := ScenarioConfig(sc, 0)
	cfg.MaxSensors = len(sc.Sensors) - 1
	if _, err := NewEngine(cfg); !errors.Is(err, ErrSensorLimit) {
		t.Fatalf("NewEngine over cap: err=%v, want ErrSensorLimit", err)
	}
	cfg.MaxSensors = len(sc.Sensors)
	if _, err := NewEngine(cfg); err != nil {
		t.Fatalf("NewEngine at cap: %v", err)
	}
}

// TestIngestSeqUnsequencedBypass: seq-0 readings keep the legacy
// trust-the-transport behavior.
func TestIngestSeqUnsequencedBypass(t *testing.T) {
	e, sc := seqEngine(t, 4)
	id := sc.Sensors[0].ID
	for i := 0; i < 3; i++ {
		if n, err := e.IngestSeq(Meas{SensorID: id, CPM: 40}); err != nil || n != 1 {
			t.Fatalf("unsequenced %d: n=%d err=%v", i, n, err)
		}
	}
	s := e.Snapshot()
	if s.Ingested != 3 || s.Delivery.Unsequenced != 3 {
		t.Errorf("unsequenced path: ingested=%d stats=%+v", s.Ingested, s.Delivery)
	}
}

// journalFunc adapts a func to the Journal interface.
type journalFunc func(Meas) error

func (f journalFunc) Append(m Meas) error { return f(m) }

// AppendRefresh implements Journal; refresh entries are not the
// subject of these tests.
func (f journalFunc) AppendRefresh([]wal.Estimate) error { return nil }

// TestJournalWriteAhead: every applied reading hits the journal first,
// in application order, and a journal error vetoes application.
func TestJournalWriteAhead(t *testing.T) {
	sc := scenario.A(50, false)
	var logged []Meas
	fail := false
	cfg := ScenarioConfig(sc, 5)
	cfg.Journal = journalFunc(func(m Meas) error {
		if fail {
			return errors.New("disk full")
		}
		logged = append(logged, m)
		return nil
	})
	cfg.ReorderWindow = 4
	cfg.Localizer.Workers = 2
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sc.Sensors[0].ID, sc.Sensors[1].ID
	// Arrival order b,a within round 1: the journal must record the
	// canonical application order a,b.
	if _, err := e.IngestSeq(Meas{SensorID: b, CPM: 41, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestSeq(Meas{SensorID: a, CPM: 40, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if n, err := e.FlushPending(); err != nil || n != 2 {
		t.Fatalf("flush n=%d err=%v", n, err)
	}
	if len(logged) != 2 || logged[0].SensorID != a || logged[1].SensorID != b {
		t.Fatalf("journal order: %+v", logged)
	}
	if s := e.Snapshot(); s.Journaled != 2 {
		t.Errorf("journaled = %d, want 2", s.Journaled)
	}

	// Journal failure at release time: nothing may reach the filter,
	// and the reading stays held for a later retry.
	fail = true
	if _, err := e.IngestSeq(Meas{SensorID: a, CPM: 42, Seq: 2}); err != nil {
		t.Fatalf("buffering must not touch the journal: %v", err)
	}
	if _, err := e.FlushPending(); err == nil {
		t.Fatal("journal failure did not veto the flush")
	}
	if got := e.Snapshot(); got.Ingested != 2 || got.Journaled != 2 || got.Delivery.Pending != 1 {
		t.Errorf("unjournaled reading leaked: %+v", got)
	}
	fail = false
	if n, err := e.FlushPending(); err != nil || n != 1 {
		t.Fatalf("retry after journal recovery: n=%d err=%v", n, err)
	}
	if got := e.Snapshot(); got.Ingested != 3 || got.Journaled != 3 {
		t.Errorf("retry not applied: %+v", got)
	}
}

// TestSettleRetryRefreshesOnce: a settle retried through journal
// failures ends in the same engine state, byte for byte, as one that
// never failed. A failed flush keeps the held tail and does not
// refresh, so only the successful attempt moves the estimates.
func TestSettleRetryRefreshesOnce(t *testing.T) {
	sc := scenario.A(50, false)
	stream := seqStream(t, sc, 8, 3)
	settled := func(k int) []byte {
		t.Helper()
		failNext := 0
		cfg := ScenarioConfig(sc, 5)
		cfg.Tracking = &track.Config{}
		cfg.Journal = journalFunc(func(Meas) error {
			if failNext > 0 {
				failNext--
				return errors.New("disk full")
			}
			return nil
		})
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range stream {
			if _, err := e.IngestSeq(m); err != nil {
				t.Fatal(err)
			}
		}
		if e.Snapshot().Delivery.Pending == 0 {
			t.Fatal("no held tail to settle")
		}
		failNext = k
		for tries := 0; e.Settle() != nil; tries++ {
			if tries == k {
				t.Fatalf("k=%d: settle still failing after %d attempts", k, tries+1)
			}
		}
		st, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := settled(0)
	for _, k := range []int{1, 3} {
		if got := settled(k); !bytes.Equal(got, want) {
			t.Errorf("k=%d failed appends: settled state differs from a fault-free settle", k)
		}
	}
}
