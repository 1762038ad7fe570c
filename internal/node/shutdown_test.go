package node

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"radloc/internal/scenario"
)

// unreachable fails every request at once: a peer that is down.
type unreachable struct{}

func (unreachable) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("peer unreachable")
}

// TestShutdownIsPrompt starts a node with all four background loops
// on hour-long intervals and checks that Shutdown returns without
// waiting out any of them, and that none of the loops outlives it. A
// loop that waits in a way cancellation cannot interrupt stalls
// daemon shutdown for up to its full interval.
func TestShutdownIsPrompt(t *testing.T) {
	n, err := New(Config{
		Scenario:      scenario.A(50, false),
		WALDir:        t.TempDir(),
		ClusterSelf:   "http://a",
		Failover:      true,
		Peers:         []string{"http://b"},
		HTTP:          unreachable{},
		ProbeInterval: time.Hour,
		ScrubInterval: time.Hour,
		StorageProbe:  time.Hour,
		ZoneIdle:      time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start(context.Background())
	time.Sleep(20 * time.Millisecond) // let every loop reach its wait
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- n.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return within 5s while the background loops waited out hour-long intervals")
	}
	t.Logf("Shutdown took %v", time.Since(start))

	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range []string{"radloc/internal/clock.Every", "radloc/internal/failover."} {
		if strings.Contains(stacks, fn) {
			t.Errorf("a goroutine in %s outlived Shutdown:\n%s", fn, stacks)
		}
	}
}
