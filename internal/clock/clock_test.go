package clock

import (
	"context"
	"sync"
	"testing"
	"time"

	"radloc/internal/rng"
)

func TestFakeSleepAdvances(t *testing.T) {
	start := time.Unix(0, 0)
	f := NewFake(start)
	f.Sleep(3 * time.Second)
	f.Sleep(-time.Second) // ignored
	f.Sleep(500 * time.Millisecond)
	if got, want := f.Now(), start.Add(3500*time.Millisecond); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
	slept := f.Slept()
	if len(slept) != 2 || slept[0] != 3*time.Second || slept[1] != 500*time.Millisecond {
		t.Errorf("Slept() = %v", slept)
	}
}

func TestFakeAdvanceDoesNotRecord(t *testing.T) {
	f := NewFake(time.Unix(100, 0))
	f.Advance(time.Minute)
	if len(f.Slept()) != 0 {
		t.Errorf("Advance recorded a sleep: %v", f.Slept())
	}
	if got := f.Now(); !got.Equal(time.Unix(160, 0)) {
		t.Errorf("Now() = %v", got)
	}
}

func TestFakeWithTimeoutNeverFires(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	ctx, cancel := f.WithTimeout(context.Background(), time.Nanosecond)
	f.Advance(time.Hour)
	select {
	case <-ctx.Done():
		t.Fatal("fake timeout fired on its own")
	default:
	}
	cancel()
	<-ctx.Done()
}

func TestRealWithTimeout(t *testing.T) {
	ctx, cancel := Real{}.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("real timeout did not fire")
	}
}

// stepClock is a wall clock whose waits end at once; it records each
// requested wait, so Every's schedule is observable without sleeping.
type stepClock struct {
	Real
	mu    sync.Mutex
	waits []time.Duration
}

func (c *stepClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c.mu.Lock()
	c.waits = append(c.waits, d)
	c.mu.Unlock()
	return context.WithTimeout(ctx, 0)
}

func (c *stepClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.waits...)
}

// TestEverySchedule pins the shared wait: the first tick follows one
// wait, every wait lies inside ±20% of the interval and the waits
// spread, and no tick runs once ctx is cancelled — here from inside
// the 20th tick.
func TestEverySchedule(t *testing.T) {
	const interval = time.Hour
	clk := &stepClock{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	u := rng.NewNamed(1, "test/every").Float64
	ticks := 0
	Every(ctx, clk, interval, u, func(tctx context.Context) {
		ticks++
		if tctx != ctx {
			t.Error("tick did not receive Every's ctx")
		}
		if n := len(clk.recorded()); n != ticks {
			t.Fatalf("tick %d came after %d waits, want one wait per tick", ticks, n)
		}
		if ticks == 20 {
			cancel()
		}
	})
	if ticks != 20 {
		t.Fatalf("tick ran %d times, want 20 (none after cancel)", ticks)
	}
	waits := clk.recorded()
	seen := make(map[time.Duration]bool)
	for _, d := range waits[:20] {
		if d < 8*interval/10 || d > 12*interval/10 {
			t.Fatalf("wait %v outside ±20%% of %v", d, interval)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("20 waits took %d distinct value(s), want jitter", len(seen))
	}
}

// TestEveryCancelIsPrompt cancels Every in the middle of a one-hour
// wait on the wall clock: it must return at once, without a tick.
func TestEveryCancelIsPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	ticked := false
	go func() {
		defer close(done)
		Every(ctx, Real{}, time.Hour, func() float64 { return 0.5 }, func(context.Context) { ticked = true })
	}()
	time.Sleep(10 * time.Millisecond) // let Every reach its wait
	start := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Every did not return when cancelled mid-wait")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Every took %v to return after cancel", d)
	}
	if ticked {
		t.Error("tick ran although no wait completed")
	}
}
