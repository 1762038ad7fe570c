package zone

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/wal"
)

// blockingJournal is a write-ahead journal whose Append parks on a
// channel once armed, holding the zone's event loop mid-batch.
type blockingJournal struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingJournal() *blockingJournal {
	return &blockingJournal{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

// unblock lets a parked Append return. Idempotent.
func (j *blockingJournal) unblock() { j.once.Do(func() { close(j.release) }) }

// Append implements fusion.Journal.
func (j *blockingJournal) Append(fusion.Meas) error {
	if j.armed.Load() {
		j.entered <- struct{}{}
		<-j.release
	}
	return nil
}

// AppendRefresh implements fusion.Journal.
func (j *blockingJournal) AppendRefresh([]wal.Estimate) error { return nil }

// unsequenced strips the sequence stamps, so every reading is
// journaled and applied the moment it is submitted.
func unsequenced(ms []fusion.Meas) []fusion.Meas {
	out := make([]fusion.Meas, len(ms))
	for i, m := range ms {
		out[i] = fusion.Meas{SensorID: m.SensorID, CPM: m.CPM}
	}
	return out
}

// TestSnapshotDoesNotWaitForTheLoop holds the event loop inside a
// journal append and checks that a read still returns promptly with
// the state published before that batch, and that once the batch's
// Submit returns the read reflects it.
func TestSnapshotDoesNotWaitForTheLoop(t *testing.T) {
	j := newBlockingJournal()
	m := testManager(t, Options{Factory: func(string) (Resources, error) {
		return Resources{Engine: testEngineWith(t, 5, j)}, nil
	}})
	t.Cleanup(j.unblock) // runs before the manager's Close, even on failure
	z, err := m.Get("held")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ms := unsequenced(stream(t, 1, 1, 0))
	if _, err := z.Submit(ctx, ms[:10]); err != nil {
		t.Fatal(err)
	}
	before := z.Snapshot().Ingested
	if before != 10 {
		t.Fatalf("ingested %d after the first batch, want 10", before)
	}

	j.armed.Store(true)
	submitted := make(chan error, 1)
	go func() {
		_, err := z.Submit(ctx, ms[10:11])
		submitted <- err
	}()
	<-j.entered // the loop is now parked mid-batch

	read := make(chan uint64, 1)
	go func() { read <- z.Snapshot().Ingested }()
	select {
	case got := <-read:
		if got != before {
			t.Fatalf("read during a held batch saw ingested %d, want the published %d", got, before)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("Snapshot blocked behind the event loop")
	}

	j.armed.Store(false)
	j.unblock()
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if got := z.Snapshot().Ingested; got != before+1 {
		t.Fatalf("read after the ack saw ingested %d, want %d", got, before+1)
	}
}

// TestOwnershipUnderConcurrentOps races Submit writers, Do(ExportState)
// callers and Snapshot readers on one zone. Every reading is applied
// exactly once, and no reader ever sees the ingested count go back.
func TestOwnershipUnderConcurrentOps(t *testing.T) {
	m := testManager(t, Options{})
	z, err := m.Get("busy")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ms := unsequenced(stream(t, 4, 2, 0))

	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ms); i += writers {
				if _, err := z.Submit(ctx, ms[i:i+1]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var others sync.WaitGroup
	for r := 0; r < 2; r++ {
		others.Add(2)
		go func() { // snapshot readers
			defer others.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				got := z.Snapshot().Ingested
				if got < last {
					t.Errorf("ingested went back from %d to %d", last, got)
					return
				}
				last = got
			}
		}()
		go func() { // control operations
			defer others.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				err := z.Do(ctx, func(e *fusion.Engine) error {
					_, err := e.ExportState()
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	others.Wait()

	if got := z.Snapshot().Ingested; got != uint64(len(ms)) {
		t.Fatalf("ingested %d, want exactly %d", got, len(ms))
	}
}

// TestDoAfterCloseRefused checks that a closed zone refuses control
// operations instead of running them.
func TestDoAfterCloseRefused(t *testing.T) {
	m := testManager(t, Options{})
	z, err := m.Get("east")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("east"); err != nil {
		t.Fatal(err)
	}
	ran := false
	err = z.Do(context.Background(), func(*fusion.Engine) error { ran = true; return nil })
	if !errors.Is(err, ErrZoneClosed) || ran {
		t.Fatalf("Do after close = %v (ran %v), want ErrZoneClosed", err, ran)
	}
}
