package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"radloc/internal/rng"
	"radloc/internal/transport"
)

// sendBatch is one POST of the measured phase.
type sendBatch struct {
	readings []transport.Reading
	// step, pos and of place the batch in its delivery step: it is
	// batch pos of of in step step of the send list, which sets its due
	// time in an open loop.
	step, pos, of int
}

// sendList flattens steps into the POSTs a zone sends, in order.
func sendList(steps []step) []sendBatch {
	var out []sendBatch
	for s, st := range steps {
		for i, b := range st {
			out = append(out, sendBatch{readings: b, step: s, pos: i, of: len(st)})
		}
	}
	return out
}

// writeRec is one POST's outcome. Times are offsets from the window
// start. due is when the batch was scheduled (open loop) or sent
// (closed loop); ready is when it could first have been sent: its due
// time, or the end of the previous request on its connection if that
// came later.
type writeRec struct {
	zone, batch       int
	due, ready, start time.Duration
	end               time.Duration
	readings          int
	err               error
}

// latency runs from the due time, so it counts the wait a stall imposes
// on later requests, minus the load generator's own lateness in
// starting the request once it could (start-ready), which is reported
// apart.
func latency(due, ready, start, end time.Duration) time.Duration {
	return end - start + ready - due
}

// readRec is one GET /snapshot's outcome, timed like a write.
type readRec struct {
	zone                   int
	due, ready, start, end time.Duration
	journaled              uint64
	err                    error
}

// op is one scheduled request of an open-loop schedule.
type op struct {
	due   time.Duration
	zone  int
	batch int // index into the zone's send list; -1 reads the zone's snapshot
}

// snapshotJSON is the part of GET /snapshot the benchmark reads.
type snapshotJSON struct {
	Journaled uint64         `json:"journaled"`
	Estimates []estimateJSON `json:"estimates"`
}

// estimateJSON is one served source estimate; the correctness gate
// compares these four fields bit for bit.
type estimateJSON struct {
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	StrengthUCi float64 `json:"strengthUCi"`
	Mass        float64 `json:"mass"`
}

// loader loads one booted node for one measured window. All load comes
// from this process over at most writeConns+1 connections.
type loader struct {
	w     *workload
	base  string
	sends [][]sendBatch // per zone: the redelivered warm steps, then the measured ones
	// redelivered counts, per zone, the batches leading sends that
	// redeliver the crash image's unjournaled warm steps.
	redelivered []int
	clients     []*transport.Client
	conns       []*http.Client // per connection; clients[z] posts over conns[z%writeConns]
	reader      *http.Client   // nil when the workload has no reader
	tr          *tracer        // nil in untraced passes
	seed        uint64         // seeds the read schedule's jitter
	window      time.Duration
	// hardStop abandons an open-loop schedule that has fallen this far
	// behind, so an overloaded node cannot hold the run past its limit.
	hardStop time.Duration
	t0       time.Time

	mu     sync.Mutex
	writes []writeRec
	reads  []readRec
	late   []time.Duration // generator lateness of every scheduled request
	// abandoned counts scheduled requests never sent (hard stop).
	abandoned int
}

func (d *loader) since() time.Duration { return time.Since(d.t0) }

// run executes the window: one goroutine per connection, each sending
// its own schedule (built before the clock starts), and returns when
// all have finished.
func (d *loader) run(ctx context.Context) {
	ops := make([][]op, len(d.conns))
	if d.w.openLoop {
		for c := range d.conns {
			ops[c] = d.connOps(c)
		}
	}
	var readOps []op
	if d.reader != nil {
		readOps = d.readOps()
	}
	d.t0 = time.Now()
	var wg sync.WaitGroup
	for c := range d.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if d.w.openLoop {
				d.schedule(ctx, d.conns[c], ops[c])
			} else {
				d.closedLoop(ctx, c)
			}
		}(c)
	}
	if d.reader != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.schedule(ctx, d.reader, readOps)
		}()
	}
	wg.Wait()
}

// connZones lists the zones whose writes ride connection c.
func (d *loader) connZones(c int) []int {
	var zs []int
	for z := range d.w.zones {
		if z%len(d.conns) == c {
			zs = append(zs, z)
		}
	}
	return zs
}

// connOps is connection c's open-loop schedule: its zones' POSTs at
// rate delivery steps per second. Zones' rounds are staggered evenly
// over a round period, as independent deployments would be.
func (d *loader) connOps(c int) []op {
	var ops []op
	period := float64(time.Second) / d.w.rate
	for _, z := range d.connZones(c) {
		phase := float64(z) / float64(len(d.w.zones))
		for i, sb := range d.sends[z] {
			due := time.Duration((float64(sb.step) + float64(sb.pos)/float64(sb.of) + phase) * period)
			if due >= d.window {
				break
			}
			ops = append(ops, op{due: due, zone: z, batch: i})
		}
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}

// readOps schedules the reader's GET /snapshot requests at the
// workload's read rate, cycling through the zones. Each read falls at a
// seeded uniformly random point of its read period, so reads sample
// every phase of the write cycle instead of one.
func (d *loader) readOps() []op {
	jitter := rng.NewNamed(d.seed, "bench/reads")
	var ops []op
	for k := 0; ; k++ {
		due := time.Duration((float64(k) + jitter.Float64()) * float64(time.Second) / d.w.readHz)
		if due >= d.window {
			return ops
		}
		ops = append(ops, op{due: due, zone: k % len(d.w.zones), batch: -1})
	}
}

// schedule sends ops at their due times over one connection. Latency
// is timed from each request's due time; generator lateness is how far
// past max(due, previous request's end) a request actually started.
func (d *loader) schedule(ctx context.Context, hc *http.Client, ops []op) {
	var prevEnd time.Duration
	for i, o := range ops {
		if wait := o.due - d.since(); wait > 0 {
			time.Sleep(wait)
		}
		start := d.since()
		if start > d.hardStop {
			d.mu.Lock()
			d.abandoned += len(ops) - i
			d.mu.Unlock()
			return
		}
		ready := max(o.due, prevEnd)
		d.mu.Lock()
		d.late = append(d.late, start-ready)
		d.mu.Unlock()
		if o.batch >= 0 {
			prevEnd = d.write(ctx, o.zone, o.batch, o.due, ready).end
		} else {
			prevEnd = d.read(ctx, hc, o.zone, o.due, ready).end
		}
	}
}

// closedLoop sends connection c's zone's batches back to back until
// the window closes.
func (d *loader) closedLoop(ctx context.Context, c int) {
	z := d.connZones(c)[0]
	for i := range d.sends[z] {
		if d.since() >= d.window {
			return
		}
		d.write(ctx, z, i, -1, -1)
	}
}

// write posts one batch through the zone's transport client. due < 0
// marks a closed-loop send, due and ready at its start.
func (d *loader) write(ctx context.Context, z, i int, due, ready time.Duration) writeRec {
	b := d.sends[z][i].readings
	var id uint64
	var spanStart int64
	if d.tr != nil {
		id, spanStart = d.tr.newID(), d.tr.now()
		ctx = context.WithValue(ctx, parentKey{}, id)
	}
	start := d.since()
	err := d.clients[z].Send(ctx, b)
	end := d.since()
	if d.tr != nil {
		d.tr.add(span{ID: id, Req: id, Name: "transport.send", Zone: d.w.zones[z], Start: spanStart, End: d.tr.now()})
	}
	if due < 0 {
		due, ready = start, start
	}
	rec := writeRec{zone: z, batch: i, due: due, ready: ready, start: start, end: end, readings: len(b), err: err}
	d.mu.Lock()
	d.writes = append(d.writes, rec)
	d.mu.Unlock()
	return rec
}

// read fetches one zone's snapshot; latency runs until the body is
// decoded.
func (d *loader) read(ctx context.Context, hc *http.Client, z int, due, ready time.Duration) readRec {
	var id uint64
	var spanStart int64
	if d.tr != nil {
		id, spanStart = d.tr.newID(), d.tr.now()
		ctx = context.WithValue(ctx, parentKey{}, id)
	}
	start := d.since()
	snap, err := getSnapshot(ctx, hc, d.base+zonePath(d.w.zones[z], "/snapshot"))
	end := d.since()
	if d.tr != nil {
		d.tr.add(span{ID: id, Req: id, Name: "bench.read", Zone: d.w.zones[z], Start: spanStart, End: d.tr.now()})
	}
	rec := readRec{zone: z, due: due, ready: ready, start: start, end: end, journaled: snap.Journaled, err: err}
	d.mu.Lock()
	d.reads = append(d.reads, rec)
	d.mu.Unlock()
	return rec
}

// getSnapshot performs one GET /snapshot and decodes it.
func getSnapshot(ctx context.Context, hc *http.Client, url string) (snapshotJSON, error) {
	var snap snapshotJSON
	err := fetchJSON(ctx, hc, url, &snap)
	return snap, err
}

// fetchJSON performs one GET and decodes the 200 response body into v.
func fetchJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}
