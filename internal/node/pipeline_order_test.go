package node

// Error-ordering contract of the unified write pipeline: when several
// refusal conditions hold at once, every entry point reports them in
// the same order —
//
//	cluster fence (307/503) → admission (415/413/429) → storage (507)
//
// The tests stack all conditions, assert the front verdict, then
// strip one condition at a time until only the storage fault is left.
// Because all three entry points (HTTP ingest, pipe-mode Submit,
// replication Apply) share the WritePipeline, the ordering is pinned
// by construction — these tests keep it pinned if the boundaries ever
// grow shortcut paths again.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"

	"radloc/internal/cluster"
	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/node/nodetest"
	"radloc/internal/vfs"
	"radloc/internal/wal"
	"radloc/internal/zone"
)

// faultyFS mods a test node onto an injectable filesystem with a
// tight request-body bound, so both the storage (507) and admission
// (413) conditions can be raised at will.
func faultyFS(f *vfs.Faulty) func(*Config) {
	return func(c *Config) {
		c.FS = f
		c.MaxBody = 64
	}
}

// degrade makes every WAL write and sync fail like a full disk.
func degrade(f *vfs.Faulty) {
	f.FailWrites(syscall.ENOSPC, false)
	f.FailSyncs(syscall.ENOSPC)
}

// postAs issues a POST with an explicit Content-Type ("" = none).
func postAs(mux http.Handler, url, body, contentType string) int {
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code
}

const (
	orderSmallBody = `[{"sensorId":0,"cpm":10}]`                                                 // under the 64-byte bound
	orderBigBody   = `[{"sensorId":0,"cpm":10},{"sensorId":1,"cpm":11},{"sensorId":2,"cpm":12}]` // over it
)

// TestWriteErrorOrderingHTTP stacks fence + admission + storage on
// the HTTP entry point and strips front-to-back: the standby fence
// answers before any byte of the body is judged, the admission checks
// (content type, then size, then rate) answer before the disk is
// touched, and only a request that passes them all sees the 507.
func TestWriteErrorOrderingHTTP(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	fsA, fsB := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 1}), vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 2})
	a := newClusterTestNode(t, fab, "a", &routes, faultyFS(fsA))
	b := newClusterTestNode(t, fab, "b", &routes, faultyFS(fsB))
	degrade(fsA)
	degrade(fsB)

	steps := []struct {
		name string
		code int
		do   func() int
	}{
		{"fence beats admission and storage", http.StatusTemporaryRedirect, func() int {
			// Standby, wrong content type, oversized body, dead disk: 307.
			return postAs(b.mux, "http://b/measurements", orderBigBody, "text/plain")
		}},
		{"content type beats size and storage", http.StatusUnsupportedMediaType, func() int {
			return postAs(a.mux, "http://a/measurements", orderBigBody, "text/plain")
		}},
		{"body bound beats storage", http.StatusRequestEntityTooLarge, func() int {
			return postAs(a.mux, "http://a/measurements", orderBigBody, "application/json")
		}},
		{"storage answers last", http.StatusInsufficientStorage, func() int {
			return postAs(a.mux, "http://a/measurements", orderSmallBody, "application/json")
		}},
	}
	for _, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			if code := s.do(); code != s.code {
				t.Fatalf("HTTP %d, want %d", code, s.code)
			}
		})
	}

	// Rate limiting is admission too: a rate-refused reading sheds 429
	// before the pipeline ever offers it to the dead disk.
	fsR := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 3})
	r := newClusterTestNode(t, fab, "r", nil, faultyFS(fsR), func(c *Config) {
		c.Rate = 1e-9 // first token arrives in ~30 years
	})
	degrade(fsR)
	// The bucket starts with its 1-token minimum burst: the first post
	// pays it, passes admission, and hits the dead disk (507). The
	// second finds the bucket dry and sheds 429 before the pipeline
	// ever offers the reading to storage.
	if code := postAs(r.mux, "http://r/measurements", orderSmallBody, "application/json"); code != http.StatusInsufficientStorage {
		t.Fatalf("first rate-budgeted write = HTTP %d, want 507", code)
	}
	if code := postAs(r.mux, "http://r/measurements", orderSmallBody, "application/json"); code != http.StatusTooManyRequests {
		t.Fatalf("rate-exhausted write on a dead disk = HTTP %d, want 429", code)
	}
}

// TestWriteErrorOrderingPipe drives the same stack through
// WritePipeline.Submit — the pipe-mode entry point — where the
// verdicts are errors instead of status codes but the order is the
// same: fence, then zone admission, then the journal.
func TestWriteErrorOrderingPipe(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
		"aux":     {Primary: "http://a", Standby: "http://b"},
	}}
	fsB := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 4})
	newClusterTestNode(t, fab, "a", &routes)
	b := newClusterTestNode(t, fab, "b", &routes, faultyFS(fsB), func(c *Config) {
		c.MaxZones = 1 // the recovered default zone exhausts the budget
	})
	fsC := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 5})
	c := newClusterTestNode(t, fab, "c", nil, faultyFS(fsC), func(c *Config) {
		c.MaxZones = 1
	})
	degrade(fsB)
	degrade(fsC)

	batch := []fusion.Meas{{SensorID: 0, CPM: 10}}
	ctx := context.Background()

	// Standby + zone limit + dead disk: the fence answers first.
	_, err := b.n.Pipeline().Submit(ctx, "aux", batch)
	if !errors.Is(err, httpingest.ErrNotWritable) {
		t.Fatalf("standby submit error = %v, want the fence's ErrNotWritable", err)
	}
	// No fence (standalone node): zone admission answers before the
	// journal is touched.
	_, err = c.n.Pipeline().Submit(ctx, "aux", batch)
	if !errors.Is(err, zone.ErrZoneLimit) {
		t.Fatalf("over-limit submit error = %v, want ErrZoneLimit", err)
	}
	// Admission clean: the journal fault is finally the answer.
	var je *fusion.JournalError
	if _, err = c.n.Pipeline().Submit(ctx, zone.DefaultZone, batch); !errors.As(err, &je) {
		t.Fatalf("degraded-storage submit error = %v, want JournalError", err)
	}
}

// TestWriteErrorOrderingReplication covers the replicated entry: the
// epoch fence at the cluster boundary answers before anything else,
// offset-continuity sequencing answers before the journal, and the
// journal fault surfaces only once continuity holds.
func TestWriteErrorOrderingReplication(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	fsA := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 6})
	a := newClusterTestNode(t, fab, "a", &routes, faultyFS(fsA))
	newClusterTestNode(t, fab, "b", &routes)

	// Sequencing beats storage: on a dead disk, a discontinuous batch
	// is refused for its gap, not for the disk.
	fsC := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 7})
	c := newClusterTestNode(t, fab, "c", nil, faultyFS(fsC))
	degrade(fsC)
	ents := []wal.Entry{{Rec: wal.Record{SensorID: 0, CPM: 10, Seq: 1}}}
	err := c.n.Pipeline().Apply(c.zs.defaultZone(), 999, ents)
	if err == nil || !strings.Contains(err.Error(), "offset gap") {
		t.Fatalf("gapped apply error = %v, want an offset-gap refusal", err)
	}
	// Continuity holds: the journal fault is the answer, and nothing
	// was applied (journal-before-apply survives on this path too).
	err = c.n.Pipeline().Apply(c.zs.defaultZone(), 0, ents)
	if err == nil || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("degraded apply error = %v, want ENOSPC", err)
	}

	// The epoch fence answers ahead of both, dead disk and all: a pull
	// carrying a newer epoch is refused 409 before any record moves.
	degrade(fsA)
	if _, code := nodetest.HTTPStatus(a.mux, http.MethodGet, "http://a/cluster/wal/default?from=0&epoch=99", ""); code != http.StatusConflict {
		t.Fatalf("newer-epoch pull on a degraded primary = HTTP %d, want 409", code)
	}
}
