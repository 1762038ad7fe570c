package node

// Regression tests for the HTTP ingest backpressure posture: body
// bounds (413), Content-Type enforcement (415), admission-queue
// shedding and per-sensor rate limiting (429 + Retry-After), the
// /statez ingress counters, and the server's slow-client timeouts.

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"radloc/internal/clock"
	"radloc/internal/httpingest"
	"radloc/internal/vfs"
)

func TestHTTPRejectsNonJSONContentType(t *testing.T) {
	n := testNode(t, "")
	ing := n.ingest
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/measurements", "text/plain", strings.NewReader(`{"sensorId":0,"cpm":12}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain status = %d, want 415", resp.StatusCode)
	}
	// Parameters on the JSON media type must still be accepted.
	resp, err = http.Post(srv.URL+"/measurements", "application/json; charset=utf-8",
		strings.NewReader(`{"sensorId":0,"cpm":12}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("application/json;charset status = %d, want 200", resp.StatusCode)
	}
	if got := ing.Stats().BadContentType; got != 1 {
		t.Errorf("BadContentType = %d, want 1", got)
	}
}

func TestHTTPBoundsRequestBodies(t *testing.T) {
	n := testNode(t, "", func(c *Config) { c.MaxBody = 64 })
	ing := n.ingest
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	big := `[` + strings.Repeat(`{"sensorId":0,"cpm":12},`, 20) + `{"sensorId":0,"cpm":12}]`
	resp, err := http.Post(srv.URL+"/measurements", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status = %d, want 413", resp.StatusCode)
	}
	// A body within the bound still works.
	resp, err = http.Post(srv.URL+"/measurements", "application/json", strings.NewReader(`{"sensorId":0,"cpm":12}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body status = %d, want 200", resp.StatusCode)
	}
	if got := ing.Stats().Oversized; got != 1 {
		t.Errorf("Oversized = %d, want 1", got)
	}

	// The counters surface on /statez for reconciliation.
	resp, err = http.Get(srv.URL + "/statez")
	if err != nil {
		t.Fatal(err)
	}
	var st statezJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Ingress.Oversized != 1 || st.Ingress.Accepted != 1 {
		t.Errorf("/statez ingress = %+v, want oversized 1 accepted 1", st.Ingress)
	}
}

// walParker is a filesystem whose first write to a WAL segment parks
// until unpark, holding the zone's event loop — and the request
// waiting on it — mid-batch.
type walParker struct {
	vfs.FS
	parked, unparked sync.Once
	entered, release chan struct{}
}

// parkedNode boots a durable testNode, adjusted by mods, over a
// walParker. The parker is released when the test ends, before the
// node shuts down, so a failing test cannot hang.
func parkedNode(t *testing.T, mods ...func(*Config)) (*Node, *walParker) {
	t.Helper()
	p := &walParker{FS: vfs.OS{}, entered: make(chan struct{}), release: make(chan struct{})}
	n := testNode(t, t.TempDir(), append(mods, func(c *Config) { c.FS = p })...)
	t.Cleanup(p.unpark)
	return n, p
}

// OpenFile implements vfs.FS, wrapping WAL segments so their first
// write parks.
func (p *walParker) OpenFile(path string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := p.FS.OpenFile(path, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(path), "wal-") {
		return f, err
	}
	return parkedSegment{f, p}, nil
}

// unpark releases the parked write. Idempotent.
func (p *walParker) unpark() { p.unparked.Do(func() { close(p.release) }) }

// parkedSegment is a WAL segment opened through a walParker.
type parkedSegment struct {
	vfs.File
	p *walParker
}

// Write implements vfs.File, parking the parker's first write.
func (s parkedSegment) Write(b []byte) (int, error) {
	s.p.parked.Do(func() { s.p.entered <- struct{}{}; <-s.p.release })
	return s.File.Write(b)
}

func TestHTTPShedsWhenQueueFull(t *testing.T) {
	// The first request's reading parks in the WAL while its admission
	// slot is still held.
	n, park := parkedNode(t, func(c *Config) {
		c.HTTPQueue = 1
		c.RetryAfter = 2 * time.Second
	})
	ing := n.ingest
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/measurements", "application/json",
			strings.NewReader(`{"sensorId":0,"cpm":12}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("first request status = %d, want 200", resp.StatusCode)
			}
		}
		firstDone <- err
	}()
	<-park.entered // the single slot is now occupied

	resp, err := http.Post(srv.URL+"/measurements", "application/json",
		strings.NewReader(`{"sensorId":1,"cpm":12}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}

	park.unpark()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if got := ing.Stats().Shed429; got != 1 {
		t.Errorf("Shed429 = %d, want 1", got)
	}
}

// TestHTTPRateLimitsPerSensor drives the per-sensor token bucket on a
// fake clock and shows that whole-batch retry converges: duplicates
// from the already-applied prefix are dedup-suppressed and their
// tokens refunded, so the retry budget is spent only on fresh data.
func TestHTTPRateLimitsPerSensor(t *testing.T) {
	n := testNode(t, "")
	clk := clock.NewFake(time.Unix(1000, 0))
	ing := httpingest.New(n.Pipeline().Submit, httpingest.Options{
		RatePerSec: 1,
		Burst:      2,
		Clock:      clk,
		RetryAfter: time.Second,
	})

	var batch strings.Builder
	batch.WriteString("[")
	for seq := 1; seq <= 5; seq++ {
		if seq > 1 {
			batch.WriteString(",")
		}
		fmt.Fprintf(&batch, `{"sensorId":0,"cpm":20,"seq":%d}`, seq)
	}
	batch.WriteString("]")

	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/measurements", strings.NewReader(batch.String()))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		ing.ServeHTTP(rec, req)
		return rec
	}

	// Burst 2: the first two readings are admitted, the third refuses
	// the rest of the batch.
	rec := post()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("first batch status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	if s := ing.Stats(); s.Accepted != 2 || s.RateLimited != 3 {
		t.Fatalf("after first batch: accepted %d rateLimited %d, want 2 and 3", s.Accepted, s.RateLimited)
	}

	// Retry the whole batch until it clears, refilling between tries.
	var last *httptest.ResponseRecorder
	for try := 0; try < 5; try++ {
		clk.Advance(2 * time.Second)
		last = post()
		if last.Code == http.StatusOK {
			break
		}
	}
	if last.Code != http.StatusOK {
		t.Fatalf("batch never cleared, last status = %d", last.Code)
	}
	var ack struct {
		Accepted  int `json:"accepted"`
		Duplicate int `json:"duplicate"`
	}
	if err := json.NewDecoder(last.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted+ack.Duplicate == 0 {
		t.Errorf("final ack %+v, want progress", ack)
	}
	if s := ing.Stats(); s.Accepted != 5 {
		t.Errorf("total accepted = %d, want 5 (each reading applied exactly once)", s.Accepted)
	}
}

func TestHTTPServerTimeoutPosture(t *testing.T) {
	srv := newHTTPServer(http.NewServeMux(), Config{
		ReadTimeout: time.Second, WriteTimeout: 2 * time.Second, IdleTimeout: 3 * time.Second,
	})
	if srv.ReadTimeout != time.Second || srv.WriteTimeout != 2*time.Second || srv.IdleTimeout != 3*time.Second {
		t.Errorf("timeouts = %v/%v/%v, want 1s/2s/3s", srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	def := newHTTPServer(http.NewServeMux(), Config{})
	if def.ReadTimeout <= 0 || def.WriteTimeout <= 0 || def.IdleTimeout <= 0 || def.ReadHeaderTimeout <= 0 {
		t.Errorf("default timeouts must all be set, got %v/%v/%v/%v",
			def.ReadTimeout, def.WriteTimeout, def.IdleTimeout, def.ReadHeaderTimeout)
	}
}

// TestHTTPCutsSlowClients sends request headers and then stalls the
// body — the slow-loris shape. The server's ReadTimeout must cut the
// connection instead of pinning it for the client's lifetime.
func TestHTTPCutsSlowClients(t *testing.T) {
	n := testNode(t, "", func(c *Config) { c.ReadTimeout = 200 * time.Millisecond })
	srv := newHTTPServer(n.Handler(), n.cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "POST /measurements HTTP/1.1\r\nHost: radlocd\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	// Never send the promised body. A well-guarded server closes the
	// connection once ReadTimeout expires; without the guard this read
	// would block until the 5s deadline and fail the test.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server never cut the stalled connection (waited %v)", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Errorf("connection cut after %v, want well under the client deadline", elapsed)
	}
}
