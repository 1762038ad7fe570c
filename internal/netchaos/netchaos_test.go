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

// outcome names what the injector did to one request.
func outcome(resp *http.Response, err error) string {
	switch {
	case errors.Is(err, ErrPartitioned):
		return "partitioned"
	case errors.Is(err, ErrReset):
		return "reset"
	case errors.Is(err, ErrDropped):
		return "dropped"
	case errors.Is(err, ErrRespDropped):
		return "respDropped"
	case err != nil:
		return err.Error()
	case resp.StatusCode == http.StatusBadGateway:
		return "injected5xx"
	}
	return "forwarded"
}

func TestRoundTripperDeterministic(t *testing.T) {
	run := func() []string {
		base := &okRT{}
		rt := New(base, Config{
			Seed:         42,
			Clock:        clock.NewFake(time.Unix(0, 0)),
			DropProb:     0.3,
			RespDropProb: 0.2,
			ResetProb:    0.1,
			Err5xxProb:   0.1,
		})
		var outs []string
		for i := 0; i < 200; i++ {
			resp, err := get(t, rt)
			outs = append(outs, outcome(resp, err))
			if resp != nil {
				resp.Body.Close()
			}
		}
		return outs
	}
	o1, o2 := run(), run()
	seen := map[string]int{}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("request %d outcome diverged: %v vs %v", i, o1[i], o2[i])
		}
		seen[o1[i]]++
	}
	for _, kind := range []string{"dropped", "respDropped", "reset", "injected5xx", "forwarded"} {
		if seen[kind] == 0 {
			t.Errorf("fault mix not exercised: no %s among %v", kind, seen)
		}
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
	if resp, err := get(t, rt); outcome(resp, err) != "forwarded" {
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
	if resp, err := get(t, rt); outcome(resp, err) != "forwarded" {
		t.Fatalf("post-heal: %v", err)
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
