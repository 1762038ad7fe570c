// Package netchaos is a deterministic network-fault injector for
// testing the sensor-to-fusion transport: a seeded http.RoundTripper
// that drops requests, drops responses (so the server applies work the
// client never hears about — the duplicate-generating failure), adds
// latency and jitter, injects 5xx and connection resets, and enforces
// hard partition windows with scheduled heals.
//
// Every decision draws from an injected rng.Stream and every time
// read from an injected clock.Clock, so a given (seed, schedule,
// workload) triple replays the identical fault pattern on every run —
// chaos you can put in CI.
package netchaos

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"radloc/internal/clock"
	"radloc/internal/rng"
)

// Window is a time interval, relative to the injector's start, during
// which a fault schedule entry is active. To is exclusive; a zero To
// means "never heals".
type Window struct {
	From time.Duration
	To   time.Duration
}

// contains reports whether elapsed falls inside the window.
func (w Window) contains(elapsed time.Duration) bool {
	if elapsed < w.From {
		return false
	}
	return w.To == 0 || elapsed < w.To
}

// Config tunes a RoundTripper.
type Config struct {
	// Seed derives the injector's rng stream.
	Seed uint64
	// Clock is the time source (required; share it with the transport
	// client under test so partitions and backoff live on one
	// timeline).
	Clock clock.Clock
	// DropProb drops the request before it reaches the server.
	DropProb float64
	// RespDropProb forwards the request but discards the response —
	// the server did the work, the client sees a failure and retries.
	// This is the fault that manufactures duplicates.
	RespDropProb float64
	// ResetProb fails the request with a connection-reset error.
	ResetProb float64
	// Err5xxProb answers with a synthetic 502 without forwarding.
	Err5xxProb float64
	// Latency and Jitter add Latency + uniform(0, Jitter) of delay to
	// forwarded requests.
	Latency time.Duration
	Jitter  time.Duration
	// Partitions are hard-partition windows: every request inside one
	// fails with a network error and nothing is forwarded. Heal is
	// scheduled by the window's To.
	Partitions []Window
}

// ErrDropped is the synthetic error for a request lost in flight.
var ErrDropped = errors.New("netchaos: request dropped")

// ErrRespDropped is the synthetic error for a response lost after the
// server processed the request.
var ErrRespDropped = errors.New("netchaos: response dropped")

// ErrPartitioned is the synthetic error for a request during a hard
// partition.
var ErrPartitioned = errors.New("netchaos: network partitioned")

// ErrReset is the synthetic connection-reset error.
var ErrReset = errors.New("netchaos: connection reset by peer")

// RoundTripper injects faults in front of a base http.RoundTripper.
// Safe for concurrent use.
type RoundTripper struct {
	base  http.RoundTripper
	cfg   Config
	start time.Time

	mu  sync.Mutex
	rng *rng.Stream
}

// New wraps base with fault injection. The start of the fault
// timeline is cfg.Clock.Now() at the moment of the call.
func New(base http.RoundTripper, cfg Config) *RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	return &RoundTripper{
		base:  base,
		cfg:   cfg,
		start: cfg.Clock.Now(),
		rng:   rng.NewNamed(cfg.Seed, "netchaos/roundtripper"),
	}
}

// Partitioned reports whether the timeline currently sits inside a
// partition window.
func (t *RoundTripper) Partitioned() bool {
	elapsed := t.cfg.Clock.Now().Sub(t.start)
	for _, w := range t.cfg.Partitions {
		if w.contains(elapsed) {
			return true
		}
	}
	return false
}

// RoundTrip implements http.RoundTripper.
func (t *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Partitioned() {
		return nil, fmt.Errorf("%w: %s", ErrPartitioned, req.URL.Host)
	}
	t.mu.Lock()
	reset := t.rng.Float64() < t.cfg.ResetProb
	drop := t.rng.Float64() < t.cfg.DropProb
	respDrop := t.rng.Float64() < t.cfg.RespDropProb
	inject5xx := t.rng.Float64() < t.cfg.Err5xxProb
	var jitter time.Duration
	if t.cfg.Jitter > 0 {
		jitter = time.Duration(t.rng.Float64() * float64(t.cfg.Jitter))
	}
	t.mu.Unlock()
	switch {
	case reset:
		return nil, ErrReset
	case drop:
		return nil, fmt.Errorf("%w: %s %s", ErrDropped, req.Method, req.URL.Path)
	case inject5xx:
		return &http.Response{
			StatusCode: http.StatusBadGateway,
			Status:     "502 Bad Gateway (injected)",
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader("netchaos: injected 502\n")),
			Request:    req,
		}, nil
	}
	if delay := t.cfg.Latency + jitter; delay > 0 {
		t.cfg.Clock.Sleep(delay)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if respDrop {
		// The server has fully processed the request; lose the answer.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, ErrRespDropped
	}
	return resp, nil
}
