// Package clock abstracts time for components that must be
// deterministic under test: the sensor transport's backoff and circuit
// breaker, the daemon's token buckets, and the network-chaos harness
// all take a Clock instead of calling the time package directly, so a
// Fake clock can replay an identical schedule on every run. Every is
// the daemon's one jittered background loop.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock is the time source. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks for d (or, for a fake, advances virtual time by d).
	Sleep(d time.Duration)
	// WithTimeout derives a context that is cancelled after d. The real
	// clock delegates to context.WithTimeout; fakes may return a
	// cancel-only context so virtual-time tests never race a runtime
	// timer.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// WithTimeout implements Clock.
func (Real) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

// jitter is the ± fraction of its interval by which Every displaces
// each wait, so a fleet restarted together does not run its periodic
// work in lockstep.
const jitter = 0.2

// Every calls tick after each wait of interval×(1 + 0.2·(2u()−1)), a
// ±20% band, until ctx is done; u is a uniform draw from [0, 1), such
// as a named rng stream's Float64. The first tick comes after one
// wait. A wait is c.WithTimeout(ctx, d) followed by its Done, so
// cancelling ctx ends it at once and leaves no goroutine sleeping, and
// no tick starts once ctx is done; a Fake clock's waits end only then.
// Every blocks until ctx is done; run it on its own goroutine.
func Every(ctx context.Context, c Clock, interval time.Duration, u func() float64, tick func(context.Context)) {
	for {
		d := time.Duration(float64(interval) * (1 + jitter*(2*u()-1)))
		wait, cancel := c.WithTimeout(ctx, d)
		<-wait.Done()
		cancel()
		if ctx.Err() != nil {
			return
		}
		tick(ctx)
	}
}

// Fake is a deterministic virtual clock. Sleep advances virtual time
// immediately instead of blocking, so a retry loop that would take
// minutes of wall time runs in microseconds while still observing the
// exact schedule (every Now() along the way reads the time a real run
// would have reached). Safe for concurrent use.
type Fake struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

// NewFake returns a Fake positioned at start.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep implements Clock: virtual time jumps forward by d and the call
// returns immediately. Negative durations are ignored.
func (f *Fake) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.slept = append(f.slept, d)
	f.mu.Unlock()
}

// Advance moves virtual time forward without recording a sleep.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// Slept returns a copy of every Sleep duration observed, in order —
// the transport's exact retry schedule, used by determinism tests.
func (f *Fake) Slept() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.slept...)
}

// WithTimeout implements Clock. The fake returns a cancel-only
// context: virtual time cannot fire runtime timers, and deterministic
// tests must not depend on wall-clock deadlines.
func (f *Fake) WithTimeout(ctx context.Context, _ time.Duration) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}
