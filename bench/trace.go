package main

import (
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"radloc/internal/obs"
	"radloc/internal/vfs"
	"radloc/internal/zone"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one. Times are
// nanoseconds from the tracer's origin.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Zone   string `json:"zone,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) newID() uint64 { return t.next.Add(1) }
func (t *tracer) now() int64    { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// between returns the spans that started in [from, to), in start
// order.
func (t *tracer) between(from, to int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// link fills in what the wrappers could not know when they recorded:
// a server span's request (its parent attempt's request) and each
// storage call's parent. A zone applies one batch at a time, so a
// storage call belongs to the write served for its zone whose span
// contains it.
func link(spans []span) {
	byID := make(map[uint64]int, len(spans))
	serves := map[string][]int{}
	for i, s := range spans {
		byID[s.ID] = i
		if s.Name == "http.serve" {
			serves[s.Zone] = append(serves[s.Zone], i)
		}
	}
	for i := range spans {
		if spans[i].Req == 0 && spans[i].Parent != 0 {
			if p, ok := byID[spans[i].Parent]; ok {
				spans[i].Req = spans[p].Req
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if !strings.HasPrefix(s.Name, "wal.") && !strings.HasPrefix(s.Name, "ckpt.") && !strings.HasPrefix(s.Name, "dir.") {
			continue
		}
		zs := serves[s.Zone]
		k := sort.Search(len(zs), func(k int) bool { return spans[zs[k]].Start > s.Start }) - 1
		if k >= 0 && spans[zs[k]].End >= s.End {
			s.Parent, s.Req = spans[zs[k]].ID, spans[zs[k]].Req
		}
	}
}

// spanHeader carries a client attempt's span ID to the server wrapper.
const spanHeader = "X-Bench-Span"

// parentKey is the context key under which the load generator passes a
// request's span ID to the traced round tripper.
type parentKey struct{}

// tracedRT records one "transport.attempt" span per HTTP round trip,
// ending when the client closes the response body, and tells the
// server wrapper its ID.
type tracedRT struct {
	inner http.RoundTripper
	t     *tracer
}

func (rt tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	id, start := rt.t.newID(), rt.t.now()
	parent, _ := req.Context().Value(parentKey{}).(uint64)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	s := span{ID: id, Parent: parent, Req: parent, Name: "transport.attempt", Start: start}
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		s.End = rt.t.now()
		rt.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// spanBody ends its attempt span when the body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// tracedHandler wraps the node's HTTP API: "http.serve" spans for
// writes, "node.read" spans for snapshot reads.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, start := h.t.newID(), h.t.now()
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	h.inner.ServeHTTP(w, r)
	name := "node.read"
	if r.Method == http.MethodPost {
		name = "http.serve"
	}
	h.t.add(span{ID: id, Parent: parent, Name: name, Zone: pathZone(r.URL.Path), Start: start, End: h.t.now()})
}

// pathZone is the zone an API path addresses.
func pathZone(p string) string {
	if rest, ok := strings.CutPrefix(p, "/zones/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		return name
	}
	return zone.DefaultZone
}

// tracedFS records a span around every write and fsync the storage
// layer issues: "wal.*" on WAL segments, "ckpt.*" on checkpoint files
// and "dir.fsync" on directory syncs. It also samples the ingest
// admission queue while a request is journaling.
type tracedFS struct {
	vfs.FS
	t        *tracer
	root     string
	inflight *obs.Gauge
	maxIn    atomic.Int64
}

func (f *tracedFS) OpenFile(path string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, path, false), nil
}

func (f *tracedFS) Open(path string) (vfs.File, error) {
	file, err := f.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, path, true), nil
}

func (f *tracedFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, file.Name(), false), nil
}

// wrap classifies a file: read-only opens are only ever synced as
// directories (the WAL's directory sync); writable files are
// checkpoints or WAL segments by name.
func (f *tracedFS) wrap(file vfs.File, path string, readOnly bool) vfs.File {
	class := "wal"
	switch {
	case readOnly:
		class = "dir"
	case strings.HasPrefix(filepath.Base(path), "checkpoint-"):
		class = "ckpt"
	}
	zoneName := zone.DefaultZone
	if rel, err := filepath.Rel(f.root, path); err == nil {
		if rest, ok := strings.CutPrefix(filepath.ToSlash(rel), "zones/"); ok {
			zoneName, _, _ = strings.Cut(rest, "/")
		}
	}
	return &tracedFile{File: file, fs: f, class: class, zone: zoneName}
}

type tracedFile struct {
	vfs.File
	fs    *tracedFS
	class string
	zone  string
}

func (tf *tracedFile) Write(p []byte) (int, error) {
	in := int64(tf.fs.inflight.Value())
	for {
		cur := tf.fs.maxIn.Load()
		if in <= cur || tf.fs.maxIn.CompareAndSwap(cur, in) {
			break
		}
	}
	start := tf.fs.t.now()
	n, err := tf.File.Write(p)
	tf.fs.t.add(span{ID: tf.fs.t.newID(), Name: tf.class + ".write", Zone: tf.zone, Start: start, End: tf.fs.t.now(), Bytes: n})
	return n, err
}

func (tf *tracedFile) Sync() error {
	start := tf.fs.t.now()
	err := tf.File.Sync()
	tf.fs.t.add(span{ID: tf.fs.t.newID(), Name: tf.class + ".fsync", Zone: tf.zone, Start: start, End: tf.fs.t.now()})
	return err
}
