package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"radloc/internal/wal"
)

// FuzzReplicationFrame throws arbitrary bytes at the replication
// decoder — first as a single frame, then as a whole pull stream.
// Torn frames, CRC flips and truncated tails must never panic, and a
// stream that fails mid-way must leave the backend with a valid
// contiguous prefix only (memBackend.ApplyRecords rejects gaps).
func FuzzReplicationFrame(f *testing.F) {
	hello, _ := EncodeControl(FrameHello, 1, 3, 0)
	end, _ := EncodeControl(FrameEnd, 1, 3, 0)
	var recs []byte
	for off := uint64(0); off < 3; off++ {
		line, _ := EncodeRecord(off, wal.Record{SensorID: int(off), CPM: 10 + int(off), Seq: off})
		recs = append(recs, line...)
	}
	valid := append(append(append([]byte{}, hello...), recs...), end...)
	// A record with its refresh frame, one with an empty refresh, and
	// one without.
	var refreshed []byte
	for off, ests := range [][]wal.Estimate{{{X: 47.25, Y: -0.5, Strength: 1e-7, Mass: 0.625, Starts: 31}}, {}, nil} {
		line, _ := EncodeRecord(uint64(off), wal.Record{SensorID: off, CPM: 20, Seq: 1})
		refreshed = append(refreshed, line...)
		if ests != nil {
			ref, _ := EncodeRefresh(uint64(off), ests)
			refreshed = append(refreshed, ref...)
		}
	}
	withRefresh := append(append(append([]byte{}, hello...), refreshed...), end...)

	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                            // truncated tail
	f.Add(bytes.Replace(valid, []byte(`"cpm":10`), []byte(`"cpm":99`), 1)) // CRC flip
	f.Add(append(append([]byte{}, recs...), end...))                       // no hello
	f.Add([]byte(`{"type":"hello","epoch":0,"head":1}` + "\n"))
	f.Add([]byte("{\"garbage\n\x00\xff"))
	f.Add(withRefresh)
	f.Add(bytes.Replace(withRefresh, []byte(`"x":47.25`), []byte(`"x":47.26`), 1))                               // CRC flip in a refresh
	f.Add(append(append(append([]byte{}, hello...), refreshed[bytes.IndexByte(refreshed, '\n')+1:]...), end...)) // orphan refresh

	f.Fuzz(func(t *testing.T, data []byte) {
		// Single-frame decode: never panics; a frame that decodes must
		// re-encode and decode back to itself (CRC included).
		if fr, err := DecodeFrame(data); err == nil {
			var line []byte
			var eerr error
			switch fr.Type {
			case FrameRecord:
				line, eerr = EncodeRecord(fr.Off, fr.Rec)
			case FrameRefresh:
				line, eerr = EncodeRefresh(fr.Off, fr.Refresh)
			case FrameHello, FrameEnd:
				line, eerr = EncodeControl(fr.Type, fr.Epoch, fr.Head, fr.Start)
			default:
				t.Fatalf("decoder produced unknown frame type %q", fr.Type)
			}
			if eerr != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", eerr)
			}
			back, derr := DecodeFrame(line)
			if derr != nil {
				t.Fatalf("re-encoded frame does not decode: %v", derr)
			}
			if !reflect.DeepEqual(back, fr) {
				t.Fatalf("round trip changed frame: %+v != %+v", back, fr)
			}
		}

		// Whole-stream apply: never panics, never applies a gapped or
		// corrupt record (the backend enforces contiguity, the CRC
		// guards content).
		n, err := NewNode(Options{Self: "http://x", Resolver: func(string) (Backend, error) { return nil, errors.New("unused") }})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if err := n.Demote("z", 1, ""); err != nil {
			t.Fatal(err)
		}
		b := newMemBackend(0)
		applied, _, err := n.applyStream("z", b, 1, bytes.NewReader(data))
		if applied != b.Offset() {
			t.Fatalf("applied %d records but backend holds %d", applied, b.Offset())
		}
		if err == nil {
			// A clean stream must open with a decodable hello frame.
			first := data
			if i := bytes.IndexByte(data, '\n'); i >= 0 {
				first = data[:i+1]
			}
			fr, derr := DecodeFrame(first)
			if derr != nil || fr.Type != FrameHello {
				t.Fatalf("stream without a leading hello decoded cleanly: %q", data)
			}
		}
	})
}
