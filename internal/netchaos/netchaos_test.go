package netchaos

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"radloc/internal/clock"
)

// okRT answers every request with 200 and counts them.
type okRT struct{ served atomic.Uint64 }

func (o *okRT) RoundTrip(req *http.Request) (*http.Response, error) {
	o.served.Add(1)
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader("ok")),
		Request:    req,
	}, nil
}

func get(t *testing.T, rt http.RoundTripper) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://fusion.test/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt.RoundTrip(req)
}

func TestRoundTripperDeterministic(t *testing.T) {
	run := func() (Stats, []error) {
		base := &okRT{}
		rt := New(base, Config{
			Seed:         42,
			Clock:        clock.NewFake(time.Unix(0, 0)),
			DropProb:     0.3,
			RespDropProb: 0.2,
			ResetProb:    0.1,
			Err5xxProb:   0.1,
		})
		var errs []error
		for i := 0; i < 200; i++ {
			resp, err := get(t, rt)
			errs = append(errs, err)
			if resp != nil {
				resp.Body.Close()
			}
		}
		return rt.Stats(), errs
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) || (e1[i] != nil && e1[i].Error() != e2[i].Error()) {
			t.Fatalf("request %d outcome diverged: %v vs %v", i, e1[i], e2[i])
		}
	}
	if s1.Dropped == 0 || s1.RespDropped == 0 || s1.Resets == 0 || s1.Injected5xx == 0 || s1.Forwarded == 0 {
		t.Errorf("fault mix not exercised: %+v", s1)
	}
}

func TestRoundTripperPartitionHeals(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	base := &okRT{}
	rt := New(base, Config{
		Seed:       1,
		Clock:      clk,
		Partitions: []Window{{From: 2 * time.Second, To: 12 * time.Second}},
	})
	// Before the partition: forwarded.
	if _, err := get(t, rt); err != nil {
		t.Fatalf("pre-partition: %v", err)
	}
	clk.Advance(3 * time.Second) // inside [2s, 12s)
	if _, err := get(t, rt); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("inside partition: err = %v", err)
	}
	clk.Advance(8 * time.Second) // t=11s, still inside
	if _, err := get(t, rt); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("still partitioned: err = %v", err)
	}
	clk.Advance(time.Second) // t=12s: healed (To exclusive)
	if _, err := get(t, rt); err != nil {
		t.Fatalf("post-heal: %v", err)
	}
	st := rt.Stats()
	if st.Partitioned != 2 || st.Forwarded != 2 {
		t.Errorf("stats = %+v", st)
	}
	if base.served.Load() != 2 {
		t.Errorf("server saw %d requests during the exercise, want 2", base.served.Load())
	}
}

func TestRoundTripperRespDropReachesServer(t *testing.T) {
	base := &okRT{}
	rt := New(base, Config{Seed: 3, Clock: clock.NewFake(time.Unix(0, 0)), RespDropProb: 1})
	if _, err := get(t, rt); !errors.Is(err, ErrRespDropped) {
		t.Fatalf("err = %v, want ErrRespDropped", err)
	}
	if base.served.Load() != 1 {
		t.Fatal("response drop must still deliver the request to the server")
	}
}

func TestRoundTripperLatencySleepsOnClock(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	rt := New(&okRT{}, Config{Seed: 4, Clock: clk, Latency: 100 * time.Millisecond, Jitter: 50 * time.Millisecond})
	for i := 0; i < 5; i++ {
		resp, err := get(t, rt)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	slept := clk.Slept()
	if len(slept) != 5 {
		t.Fatalf("sleeps = %d, want 5", len(slept))
	}
	for _, d := range slept {
		if d < 100*time.Millisecond || d >= 150*time.Millisecond {
			t.Errorf("latency %v outside [100ms, 150ms)", d)
		}
	}
}
