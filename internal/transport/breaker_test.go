package transport

import (
	"testing"
	"time"

	"radloc/internal/clock"
)

// TestBreakerTransitions drives the closed→open→half-open→{closed,
// open} machine through scripted event sequences on a virtual clock.
func TestBreakerTransitions(t *testing.T) {
	const (
		evFail    = "fail"
		evOK      = "ok"
		evAdvance = "advance" // move the clock past the cooldown
	)
	cfg := BreakerConfig{FailureThreshold: 3, Cooldown: 5 * time.Second}
	cases := []struct {
		name      string
		events    []string
		wantAllow bool
		wantOpens uint64
	}{
		{"fresh breaker allows", nil, true, 0},
		{"below threshold stays closed", []string{evFail, evFail}, true, 0},
		{"success resets the count", []string{evFail, evFail, evOK, evFail, evFail}, true, 0},
		{"threshold trips open", []string{evFail, evFail, evFail}, false, 1},
		{"open refuses before cooldown", []string{evFail, evFail, evFail, evFail}, false, 1},
		{"cooldown admits the probe", []string{evFail, evFail, evFail, evAdvance}, true, 1},
		{"probe success closes", []string{evFail, evFail, evFail, evAdvance, evOK}, true, 1},
		{"probe failure re-opens", []string{evFail, evFail, evFail, evAdvance, evFail}, false, 2},
		{"re-opened trip waits a fresh cooldown", []string{
			evFail, evFail, evFail, evAdvance, // half-open
			evFail,    // probe fails → open again (second trip)
			evAdvance, // fresh cooldown elapses
			evOK,      // probe succeeds
		}, true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewFake(time.Unix(0, 0))
			b := NewBreaker(cfg, clk)
			for _, ev := range tc.events {
				switch ev {
				case evFail:
					// Acquire the probe slot if one is pending so the
					// failure is attributed to the half-open probe.
					b.Allow()
					b.Failure()
				case evOK:
					b.Allow()
					b.Success()
				case evAdvance:
					clk.Advance(cfg.Cooldown)
				}
			}
			ok, wait := b.Allow()
			if ok != tc.wantAllow {
				t.Errorf("Allow() = %v, want %v", ok, tc.wantAllow)
			}
			// Every refusal here is an open breaker's: it names the
			// rest of a cooldown that has not elapsed.
			if !ok && (wait <= 0 || wait > cfg.Cooldown) {
				t.Errorf("refused with wait %v, want an open breaker's in (0, %v]", wait, cfg.Cooldown)
			}
			if b.Opens() != tc.wantOpens {
				t.Errorf("Opens() = %d, want %d", b.Opens(), tc.wantOpens)
			}
		})
	}
}

// TestBreakerHalfOpenSingleProbe: while one probe is in flight, other
// callers are refused.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second}, clk)
	b.Failure()
	if ok, wait := b.Allow(); ok || wait != time.Second {
		t.Fatalf("open breaker allowed (ok=%v wait=%v)", ok, wait)
	}
	clk.Advance(time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("second concurrent probe allowed")
	}
	b.Success()
	// Closed, not half-open: every caller is let through.
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("probe success did not close the breaker (call %d refused)", i)
		}
	}
}

// TestBreakerOpenWaitShrinks: the reported wait shrinks as virtual
// time passes.
func TestBreakerOpenWaitShrinks(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 10 * time.Second}, clk)
	b.Failure()
	clk.Advance(4 * time.Second)
	if _, wait := b.Allow(); wait != 6*time.Second {
		t.Errorf("wait = %v, want 6s", wait)
	}
}
