package transport

import (
	"sync"
	"time"

	"radloc/internal/clock"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are refused locally until the cooldown
	// elapses — a struggling fusion center is not hammered.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe request
	// is allowed through to test the waters.
	BreakerHalfOpen
)

// String returns the human-readable state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker open (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe (default 5s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

// Breaker is a three-state circuit breaker over an injected clock.
// Closed counts consecutive failures and trips open at the threshold;
// open refuses everything until the cooldown elapses; half-open admits
// a single probe whose outcome either closes the breaker or re-opens
// it for a fresh cooldown. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig
	clk clock.Clock

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped open
	probing  bool      // a half-open probe is in flight
	opens    uint64    // times the breaker tripped open
}

// NewBreaker builds a Breaker on clk.
func NewBreaker(cfg BreakerConfig, clk clock.Clock) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), clk: clk}
}

// Allow reports whether a request may proceed now. When it may not,
// wait is how long until the next half-open probe would be admitted.
// A true return from the open state means the caller holds THE
// half-open probe slot and must report Success or Failure.
func (b *Breaker) Allow() (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		elapsed := b.clk.Now().Sub(b.openedAt)
		if elapsed < b.cfg.Cooldown {
			return false, b.cfg.Cooldown - elapsed
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, 0
	default: // BreakerHalfOpen
		if b.probing {
			return false, b.cfg.Cooldown
		}
		b.probing = true
		return true, 0
	}
}

// Success records a successful request: the breaker closes and the
// failure count resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
}

// Failure records a failed request. In the closed state it counts
// toward the threshold; a half-open probe failure re-opens for a
// fresh cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.trip()
	case BreakerOpen:
		// A straggler failing after the trip changes nothing.
	}
}

// trip opens the breaker. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.clk.Now()
	b.fails = 0
	b.probing = false
	b.opens++
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
