package wal

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"radloc/internal/obs"
)

// edgeEstimates covers the float spellings the refresh grammar must
// carry bit for bit: both signs of zero, both exponent thresholds of
// encoding/json's float format, subnormals, the extremes, and the
// shortest-repr cases that need all 17 digits.
func edgeEstimates() [][]Estimate {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 47.031250000000014, 1e-6, 9.999999999999999e-7, 1e-7,
		-1e-7, 1e20, 1e21, 9.999999999999999e20, -1e21, 5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64, 123456789012345680}
	var out [][]Estimate
	out = append(out, []Estimate{})
	for i, v := range floats {
		out = append(out, []Estimate{{X: v, Y: -v, Strength: v / 2, Mass: floats[(i+3)%len(floats)], Starts: i}})
	}
	return append(out, []Estimate{
		{X: 47.25, Y: 71.5, Strength: 50.125, Mass: 0.5, Starts: 40},
		{X: 81, Y: 42, Strength: 49.875, Mass: 0.25, Starts: math.MaxInt},
		{X: -3, Y: 2, Strength: 0, Mass: 0, Starts: math.MinInt},
	})
}

// sameBits reports whether two estimate lists agree bit for bit.
func sameBits(a, b []Estimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for _, p := range [][2]float64{{a[i].X, b[i].X}, {a[i].Y, b[i].Y}, {a[i].Strength, b[i].Strength}, {a[i].Mass, b[i].Mass}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
		if a[i].Starts != b[i].Starts {
			return false
		}
	}
	return true
}

// TestRefreshLineMatchesEncodingJSON pins the refresh entry's on-disk
// format: the encoder's bytes equal encoding/json's for every edge
// estimate, and the decoder reads them back bit for bit.
func TestRefreshLineMatchesEncodingJSON(t *testing.T) {
	for _, ests := range edgeEstimates() {
		want := jsonRefreshLine(t, ests)
		got, ok := appendRefreshLine([]byte("keep:"), ests)
		if !ok || !bytes.Equal(got, append([]byte("keep:"), want...)) {
			t.Fatalf("appendRefreshLine(%+v)\n got %q\nwant %q", ests, got, want)
		}
		dec, ok := decodeRefreshLine(want, nil)
		if !ok || !sameBits(dec, ests) {
			t.Fatalf("decodeRefreshLine(%q) = %+v, %v; want %+v", want, dec, ok, ests)
		}
		sc := NewScanner(bytes.NewReader(append(appendLine(nil, Record{SensorID: 1}), want...)))
		if !sc.Scan() || !sc.Scan() || sc.kind != refreshLine || !sameBits(sc.ests, ests) {
			t.Fatalf("Scanner read %q after a reading as kind %d, want a refresh entry", want, sc.kind)
		}
		if _, ok := decodeLine(want); ok {
			t.Fatalf("decodeLine accepted refresh line %q as a reading", want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, ok := appendRefreshLine([]byte("keep:"), []Estimate{{X: 1}, {Mass: v}})
		if ok || string(got) != "keep:" {
			t.Fatalf("appendRefreshLine with %v: ok=%v, wrote %q; want refused, nothing written", v, ok, got)
		}
	}
}

// TestDecodeRefreshLineRejectsNonCanonical lists spellings the CRC
// alone would pass: each is corruption.
func TestDecodeRefreshLineRejectsNonCanonical(t *testing.T) {
	withCRC := func(ests string) []byte {
		return []byte(`{"crc":` + strconv.FormatUint(uint64(crc32.Checksum([]byte(ests), crcTable)), 10) + `,"refresh":` + ests + "}\n")
	}
	good := `{"x":100,"y":0.5,"strength":1e-7,"mass":-0,"starts":3}`
	if _, ok := decodeRefreshLine(withCRC("["+good+"]"), nil); !ok {
		t.Fatal("the canonical control line was refused")
	}
	for _, ests := range []string{
		`[{"x":1e2,"y":0.5,"strength":1e-7,"mass":-0,"starts":3}]`,       // exponent where encoding/json writes 100
		`[{"x":100.0,"y":0.5,"strength":1e-7,"mass":-0,"starts":3}]`,     // trailing zero
		`[{"x":100,"y":.5,"strength":1e-7,"mass":-0,"starts":3}]`,        // no leading zero
		`[{"x":100,"y":0.5,"strength":1e-07,"mass":-0,"starts":3}]`,      // padded exponent
		`[{"x":100,"y":0.5,"strength":0.0000001,"mass":-0,"starts":3}]`,  // fixed where exponent is due
		`[{"x":100,"y":0.5,"strength":1E-7,"mass":-0,"starts":3}]`,       // upper-case exponent
		`[{"x":100,"y":0.5,"strength":1e-7,"mass":-0.0,"starts":3}]`,     // negative zero spelled long
		`[{"x":100,"y":0.5,"strength":1e-7,"mass":-0,"starts":03}]`,      // leading zero
		`[{"y":0.5,"x":100,"strength":1e-7,"mass":-0,"starts":3}]`,       // reordered keys
		`[{"x":100,"y":0.5,"strength":1e-7,"mass":-0}]`,                  // missing field
		`[{"x":100,"y":0.5,"strength":1e-7,"mass":-0,"starts":3,"z":1}]`, // unknown field
		`[{"x":100, "y":0.5,"strength":1e-7,"mass":-0,"starts":3}]`,      // whitespace
		`[{"x":NaN,"y":0.5,"strength":1e-7,"mass":-0,"starts":3}]`,       // not a JSON number
		`[{"x":100,"y":0.5,"strength":1e-7,"mass":-0,"starts":3},]`,      // trailing comma
		`[,{"x":100,"y":0.5,"strength":1e-7,"mass":-0,"starts":3}]`,      // leading comma
		`[{"x":100,"y":0.5,"strength":1e-7,"mass":-0,"starts":3.0}]`,     // float starts
		`[{"x":100,"y":0.5,"strength":1e-7,"mass":-0,"starts":3}` + good, // missing comma
		`null`, `{}`, `[`,
	} {
		if got, ok := decodeRefreshLine(withCRC(ests), nil); ok {
			t.Errorf("decodeRefreshLine accepted non-canonical %s as %+v", ests, got)
		}
	}
}

// TestRefreshCodecAllocs: decoding a refresh entry into a buffer with
// room allocates nothing, so recovery's validation pass stays
// allocation-free on both entry kinds.
func TestRefreshCodecAllocs(t *testing.T) {
	ests := edgeEstimates()[len(edgeEstimates())-1]
	line, _ := appendRefreshLine(nil, ests)
	buf := make([]Estimate, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := decodeRefreshLine(line, buf[:0]); !ok {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Errorf("decodeRefreshLine allocates %v times per line, want 0", n)
	}
}

// TestAppendRefreshReplay: refresh entries take no offset, come back
// from Replay attached to the reading before them (nil where there is
// none, empty where the refresh found nothing), survive reopening and
// segment rotation, and are skipped with their reading below from.
func TestAppendRefreshReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncBatch, SegmentRecords: 3})
	if err := l.AppendRefresh(nil); err == nil {
		t.Fatal("a refresh entry with no reading before it was accepted")
	}
	// An entry longer than the readers buffer is refused whole, so it
	// can never read back as a corrupt line that truncates the log.
	appendN(t, l, 0, 1)
	huge := make([]Estimate, maxLine/40)
	for i := range huge {
		huge[i] = Estimate{X: 1.0 / 3, Y: 1.0 / 7, Strength: 1.0 / 9, Mass: 1.0 / 11}
	}
	if err := l.AppendRefresh(huge); err == nil {
		t.Fatal("a refresh entry over the line bound was accepted")
	}
	if st, _ := os.Stat(segmentPath(dir, 0)); st.Size() != int64(len(appendLine(nil, Record{SensorID: 0, CPM: 30, Seq: 1}))) {
		t.Fatalf("the refused entry left bytes behind: segment is %d bytes", st.Size())
	}
	want := map[uint64][]Estimate{}
	for i := 0; i < 10; i++ {
		if i > 0 {
			appendN(t, l, i, 1)
		}
		if i%2 == 1 {
			continue
		}
		ests := []Estimate{{X: float64(i) + 0.1, Y: -float64(i), Strength: 1.0 / 3, Mass: 0.5, Starts: i}}
		if i%4 == 0 {
			ests = []Estimate{}
		}
		if err := l.AppendRefresh(ests); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendRefresh(ests); err == nil {
			t.Fatal("a second refresh entry after one reading was accepted")
		}
		want[uint64(i)] = ests
	}
	if l.Offset() != 10 {
		t.Fatalf("offset %d after 10 readings and their refresh entries, want 10", l.Offset())
	}
	check := func(l *Log, from uint64) {
		t.Helper()
		n := from
		if err := l.Replay(from, func(off uint64, e Entry) error {
			if off != n {
				t.Fatalf("replay offset %d, want %d", off, n)
			}
			n++
			w, has := want[off]
			if has != (e.Refresh != nil) || !sameBits(e.Refresh, w) {
				t.Fatalf("offset %d: refresh %+v, want %+v (present %v)", off, e.Refresh, w, has)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != 10 {
			t.Fatalf("replay from %d stopped at %d", from, n)
		}
	}
	check(l, 0)
	check(l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, stats := mustOpen(t, dir, Options{Fsync: FsyncBatch, SegmentRecords: 3})
	defer l.Close()
	if stats.Records != 10 || stats.TruncatedRecords != 0 || stats.Segments != 4 {
		t.Fatalf("reopen stats %+v, want 10 records in 4 segments, nothing truncated", stats)
	}
	check(l, 0)
	check(l, 7)
}

// TestRefreshEntryTornOrOrphaned: a torn refresh entry at the tail is
// truncated like any torn line, leaving its reading to replay without
// one; a refresh entry with no reading before it in its segment is
// corrupt.
func TestRefreshEntryTornOrOrphaned(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncBatch})
	appendN(t, l, 0, 3)
	if err := l.AppendRefresh([]Estimate{{X: 1, Y: 2, Strength: 3, Mass: 1, Starts: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(dir, 0)
	blob, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, blob[:len(blob)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	l, stats := mustOpen(t, dir, Options{Fsync: FsyncBatch})
	if stats.Records != 3 || stats.TruncatedRecords != 1 {
		t.Fatalf("torn refresh tail: stats %+v, want 3 records and the torn entry truncated", stats)
	}
	if err := l.Replay(0, func(off uint64, e Entry) error {
		if e.Refresh != nil {
			t.Fatalf("offset %d replayed with refresh %+v after the entry was torn off", off, e.Refresh)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRefresh(nil); err == nil {
		t.Fatal("a reopened log accepted a refresh entry before any reading")
	}
	l.Close()

	// An orphaned entry opens a new segment: everything from it on is
	// cut.
	orphan, _ := appendRefreshLine(nil, []Estimate{})
	reading := appendLine(nil, Record{SensorID: 1, CPM: 2})
	if err := os.WriteFile(segmentPath(dir, 3), append(orphan, reading...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, stats = mustOpen(t, dir, Options{Fsync: FsyncBatch})
	defer l.Close()
	if stats.Records != 3 || stats.TruncatedRecords != 2 {
		t.Fatalf("orphaned refresh entry: stats %+v, want 3 records and 2 lines truncated", stats)
	}
}

// TestAppendRefreshNeverSyncs: under FsyncAlways a reading's append
// syncs and a refresh entry's does not, nor does it leave the log
// dirty for Sync; the next reading's sync makes the entry durable.
func TestAppendRefreshNeverSyncs(t *testing.T) {
	reg := obs.NewRegistry()
	l, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncAlways, Metrics: reg})
	defer l.Close()
	syncs := reg.Counter("radloc_wal_fsyncs_total", "")
	for i := 0; i < 5; i++ {
		appendN(t, l, i, 1)
		if err := l.AppendRefresh([]Estimate{{X: float64(i)}}); err != nil {
			t.Fatal(err)
		}
		if got := syncs.Value(); got != uint64(i+1) {
			t.Fatalf("after %d readings and refresh entries: %d fsyncs, want %d", i+1, got, i+1)
		}
	}
	if got := reg.Counter("radloc_wal_refresh_entries_total", "").Value(); got != 5 {
		t.Fatalf("refresh entries counted %d, want 5", got)
	}
	// A Sync with no reading outstanding, as a checkpoint's after a
	// refresh, has nothing to sync.
	if err := l.Sync(); err != nil || syncs.Value() != 5 {
		t.Fatalf("Sync after a refresh entry: err %v, %d fsyncs; want none added", err, syncs.Value())
	}
}

// TestQuarantineSplitKeepsRefreshWithReading: splitting a segment at
// floor moves each refresh entry with its reading.
func TestQuarantineSplitKeepsRefreshWithReading(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncBatch})
	for i := 0; i < 6; i++ {
		appendN(t, l, i, 1)
		if err := l.AppendRefresh([]Estimate{{X: float64(i), Starts: i}}); err != nil {
			t.Fatal(err)
		}
	}
	qdir := filepath.Join(dir, "diverged")
	moved, err := l.QuarantineSuffix(4, qdir)
	if err != nil || moved != 2 {
		t.Fatalf("QuarantineSuffix: moved %d, err %v; want 2 readings", moved, err)
	}
	var kept []float64
	if err := l.Replay(0, func(off uint64, e Entry) error {
		if len(e.Refresh) != 1 || e.Refresh[0].Starts != int(off) {
			t.Fatalf("kept offset %d with refresh %+v", off, e.Refresh)
		}
		kept = append(kept, e.Refresh[0].X)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, []float64{0, 1, 2, 3}) {
		t.Fatalf("kept refreshes %v", kept)
	}
	l.Close()
	q, stats := mustOpen(t, qdir, Options{Fsync: FsyncNever})
	defer q.Close()
	if stats.Records != 2 || stats.TruncatedRecords != 0 {
		t.Fatalf("quarantined suffix opens with %+v, want 2 clean records", stats)
	}
	var ests [][]Estimate
	if err := q.Replay(0, func(off uint64, e Entry) error {
		ests = append(ests, e.Refresh)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ests) != 2 || ests[0][0].Starts != 4 || ests[1][0].Starts != 5 {
		t.Fatalf("quarantined refreshes %+v", ests)
	}
}

// oracleDecodeRefreshLine is the encoding/json reading of a refresh
// line, the fuzz oracle for decodeRefreshLine.
func oracleDecodeRefreshLine(line []byte) ([]Estimate, bool) {
	var env struct {
		CRC     uint32          `json:"crc"`
		Refresh json.RawMessage `json:"refresh"`
	}
	dec := json.NewDecoder(bytes.NewReader(bytes.TrimRight(line, "\n")))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil || dec.More() || crc32.Checksum(env.Refresh, crcTable) != env.CRC {
		return nil, false
	}
	var ests []Estimate
	rdec := json.NewDecoder(bytes.NewReader(env.Refresh))
	rdec.DisallowUnknownFields()
	if err := rdec.Decode(&ests); err != nil || ests == nil {
		return nil, false
	}
	return ests, true
}
