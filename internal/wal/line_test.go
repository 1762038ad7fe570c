package wal

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"strconv"
	"testing"
)

// envelope is the line's encoding/json shape: Append's bytes are
// defined as json.Marshal of it, with Rec the marshaled Record.
type envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// oracleDecodeLine is the encoding/json line decoder the hand-written
// codec replaced, kept as the differential oracle: every line the codec
// accepts, the oracle must accept with an equal Record.
func oracleDecodeLine(line []byte) (Record, bool) {
	line = bytes.TrimRight(line, "\n")
	if len(line) == 0 {
		return Record{}, false
	}
	var env envelope
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&env); err != nil || dec.More() {
		return Record{}, false
	}
	if len(env.Rec) == 0 || crc32.Checksum(env.Rec, crcTable) != env.CRC {
		return Record{}, false
	}
	if canonical, err := json.Marshal(env); err != nil || !bytes.Equal(canonical, line) {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(env.Rec, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// jsonLine is the line encoding/json writes for rec.
func jsonLine(t testing.TB, rec Record) []byte {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(envelope{CRC: crc32.Checksum(raw, crcTable), Rec: raw})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// jsonRefreshLine is the line encoding/json writes for a refresh entry
// holding ests.
func jsonRefreshLine(t testing.TB, ests []Estimate) []byte {
	t.Helper()
	raw, err := json.Marshal(ests)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(struct {
		CRC     uint32          `json:"crc"`
		Refresh json.RawMessage `json:"refresh"`
	}{crc32.Checksum(raw, crcTable), raw})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// edgeRecords covers every field at its extremes, zero Step and Seq
// (omitted on the wire) included.
func edgeRecords() []Record {
	ints := []int{0, 1, -1, 9, 10, -10, 42, math.MaxInt32, math.MinInt32, math.MaxInt, math.MinInt, math.MaxInt - 1, math.MinInt + 1}
	seqs := []uint64{0, 1, 9, 10, math.MaxUint32, math.MaxInt64, math.MaxUint64 - 1, math.MaxUint64}
	var out []Record
	for _, v := range ints {
		out = append(out,
			Record{SensorID: v, CPM: 7, Step: 3, Seq: 5},
			Record{SensorID: 2, CPM: v, Step: 3, Seq: 5},
			Record{SensorID: 2, CPM: 7, Step: v, Seq: 5},
			Record{SensorID: 2, CPM: 7, Step: v},
		)
	}
	for _, s := range seqs {
		out = append(out, Record{SensorID: 2, CPM: 7, Seq: s}, Record{SensorID: 1, CPM: 0, Step: -4, Seq: s})
	}
	return append(out, Record{}, Record{SensorID: math.MinInt, CPM: math.MinInt, Step: math.MinInt, Seq: math.MaxUint64})
}

// TestAppendLineMatchesEncodingJSON pins the on-disk format: the
// hand-written encoder's bytes equal encoding/json's for every edge
// record, and both decoders read them back to the same Record.
func TestAppendLineMatchesEncodingJSON(t *testing.T) {
	prefix := []byte("keep:")
	for _, rec := range edgeRecords() {
		want := jsonLine(t, rec)
		got := appendLine(append([]byte(nil), prefix...), rec)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendLine(%+v)\n got %q\nwant %q", rec, got, want)
		}
		if dec, ok := decodeLine(want); !ok || dec != rec {
			t.Fatalf("decodeLine(%q) = %+v, %v; want %+v", want, dec, ok, rec)
		}
		if dec, ok := oracleDecodeLine(want); !ok || dec != rec {
			t.Fatalf("oracle(%q) = %+v, %v; want %+v", want, dec, ok, rec)
		}
	}
}

// TestDecodeLineRejectsNonCanonical lists spellings the CRC alone would
// pass (the rec bytes are checksummed as written) and the pre-codec
// decoder accepted: each is corruption now.
func TestDecodeLineRejectsNonCanonical(t *testing.T) {
	withCRC := func(rec string) []byte {
		return []byte(`{"crc":` + strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(rec))), 10) + `,"rec":` + rec + "}\n")
	}
	for _, rec := range []string{
		`{"cpm":2,"sensorId":1}`,                            // reordered keys
		`{"sensorid":1,"cpm":2}`,                            // case-folded key
		`{"SensorId":1,"cpm":2}`,                            // case-folded key
		`{"sensorId":1}`,                                    // missing field
		`{"sensorId":1,"cpm":null}`,                         // null
		`null`,                                              // null record
		`{"sensorId":1,"cpm":2,"step":0}`,                   // zero step written out
		`{"sensorId":1,"cpm":2,"seq":0}`,                    // zero seq written out
		`{"sensorId":1,"cpm":2,"seq":1,"step":3}`,           // optional fields reordered
		`{"sensorId":01,"cpm":2}`,                           // leading zero
		`{"sensorId":-0,"cpm":2}`,                           // negative zero
		`{"sensorId":1,"cpm":2.0}`,                          // float spelling
		`{"sensorId":1,"cpm":2e0}`,                          // exponent spelling
		`{"sensorId":1, "cpm":2}`,                           // whitespace
		`{"sensorId":1,"cpm":2,"zone":"a"}`,                 // unknown field
		`{"sensorId":9223372036854775808,"cpm":2}`,          // int overflow
		`{"sensorId":1,"cpm":2,"seq":18446744073709551616}`, // uint64 overflow
	} {
		line := withCRC(rec)
		if r, ok := decodeLine(line); ok {
			t.Errorf("decodeLine accepted non-canonical %q as %+v", line, r)
		}
	}
	good := jsonLine(t, Record{SensorID: 1, CPM: 2, Step: 3, Seq: 4})
	for _, line := range [][]byte{
		bytes.Replace(good, []byte(`"crc":`), []byte(`"crc":0`), 1), // leading zero CRC
		bytes.Replace(good, []byte(`{"crc"`), []byte(`{ "crc"`), 1), // whitespace
		bytes.Replace(good, []byte(`"rec"`), []byte(`"Rec"`), 1),    // case-folded envelope key
		bytes.Replace(good, []byte("}\n"), []byte("} \n"), 1),       // trailing space
		append(append([]byte(nil), good...), '\n'),                  // two newlines
		[]byte(`{"crc":4294967296,"rec":{"sensorId":1,"cpm":2}}`),   // CRC overflow
		{},
	} {
		if r, ok := decodeLine(line); ok {
			t.Errorf("decodeLine accepted %q as %+v", line, r)
		}
	}
	if _, ok := decodeLine(bytes.TrimSuffix(good, []byte("\n"))); !ok {
		t.Error("decodeLine refused a canonical line without its newline")
	}
}

// TestLineCodecAllocs pins the codec's allocation budget: decoding
// allocates nothing, and encoding into a buffer with room allocates
// nothing either.
func TestLineCodecAllocs(t *testing.T) {
	rec := Record{SensorID: 17, CPM: 4031, Step: 812, Seq: 813}
	line := appendLine(nil, rec)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := decodeLine(line); !ok {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Errorf("decodeLine allocates %v times per line, want 0", n)
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = appendLine(buf[:0], rec) }); n != 0 {
		t.Errorf("appendLine allocates %v times per line, want 0", n)
	}
}

// FuzzWALLine checks the codec against the encoding/json oracle on
// arbitrary bytes: whatever decodeLine (decodeRefreshLine) accepts,
// the oracle accepts with an equal Record (bit-equal estimates), and
// re-encoding reproduces the line byte for byte.
func FuzzWALLine(f *testing.F) {
	for _, rec := range edgeRecords() {
		f.Add(jsonLine(f, rec))
	}
	f.Add([]byte(`{"crc":0,"rec":{"sensorId":1,"cpm":2}}`))
	f.Add([]byte(`{"crc":1,"rec":{"seq":18446744073709551615}}` + "\n"))
	f.Add([]byte("not json at all\n"))
	for _, ests := range edgeEstimates() {
		f.Add(jsonRefreshLine(f, ests))
	}
	f.Add([]byte(`{"crc":0,"refresh":[{"x":1e2,"y":0,"strength":0,"mass":0,"starts":0}]}` + "\n"))
	f.Fuzz(func(t *testing.T, line []byte) {
		if ests, ok := decodeRefreshLine(line, nil); ok {
			want, wok := oracleDecodeRefreshLine(line)
			if !wok || !sameBits(ests, want) {
				t.Fatalf("codec accepted refresh %q as %+v; oracle says %+v, %v", line, ests, want, wok)
			}
			got, _ := appendRefreshLine(nil, ests)
			if !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), bytes.TrimSuffix(line, []byte("\n"))) {
				t.Fatalf("accepted refresh %q but re-encodes to %q", line, got)
			}
		}
		rec, ok := decodeLine(line)
		if !ok {
			return
		}
		want, wok := oracleDecodeLine(line)
		if !wok || want != rec {
			t.Fatalf("codec accepted %q as %+v; oracle says %+v, %v", line, rec, want, wok)
		}
		canon := bytes.TrimSuffix(line, []byte("\n"))
		if got := appendLine(nil, rec); !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), canon) {
			t.Fatalf("accepted %q but re-encodes to %q", line, got)
		}
	})
}

// BenchmarkDecodeLine compares the codec with the encoding/json
// decoder it replaced on one typical line.
func BenchmarkDecodeLine(b *testing.B) {
	line := jsonLine(b, Record{SensorID: 17, CPM: 4031, Step: 812, Seq: 813})
	for _, bc := range []struct {
		name   string
		decode func([]byte) (Record, bool)
	}{{"codec", decodeLine}, {"encoding-json", oracleDecodeLine}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := bc.decode(line); !ok {
					b.Fatal("decode failed")
				}
			}
		})
	}
}
