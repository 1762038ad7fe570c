package cluster

import (
	"bytes"
	"errors"
	"testing"

	"radloc/internal/wal"
)

// FuzzReplicationFrame throws arbitrary bytes at the standby as a
// whole pull stream. Torn lines, CRC flips, orphan refresh entries and
// a hello at the wrong offset must never panic; whatever the stream
// holds, the backend ends with a contiguous prefix only
// (memBackend.ApplyRecords rejects gaps), and every line the standby
// applied is one wal's decoder accepts: the applied entries re-encode
// to exactly the bytes that followed the hello.
func FuzzReplicationFrame(f *testing.F) {
	hello, _ := EncodeControl(Frame{Type: FrameHello, Epoch: 1, Head: 3})
	end, _ := EncodeControl(Frame{Type: FrameEnd, Epoch: 1, Head: 3})
	stream := func(body []byte) []byte {
		return append(append(append([]byte{}, hello...), body...), end...)
	}
	var recs []byte
	for off := 0; off < 3; off++ {
		recs, _ = wal.AppendEntry(recs, wal.Entry{Rec: wal.Record{SensorID: off, CPM: 10 + off, Seq: uint64(off)}})
	}
	// A reading with its refresh entry, one with an empty refresh, and
	// one without.
	var refreshed []byte
	for off, ests := range [][]wal.Estimate{{{X: 47.25, Y: -0.5, Strength: 1e-7, Mass: 0.625, Starts: 31}}, {}, nil} {
		refreshed, _ = wal.AppendEntry(refreshed, wal.Entry{Rec: wal.Record{SensorID: off, CPM: 20, Seq: 1}, Refresh: ests})
	}
	valid := stream(recs)
	withRefresh := stream(refreshed)
	misplaced, _ := EncodeControl(Frame{Type: FrameHello, Epoch: 1, Head: 3, Off: 1})

	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                            // torn tail
	f.Add(bytes.Replace(valid, []byte(`"cpm":10`), []byte(`"cpm":99`), 1)) // CRC flip
	f.Add(append(append([]byte{}, recs...), end...))                       // no hello
	f.Add([]byte(`{"type":"hello","epoch":0,"head":1}` + "\n"))
	f.Add([]byte("{\"garbage\n\x00\xff"))
	f.Add(withRefresh)
	f.Add(bytes.Replace(withRefresh, []byte(`"x":47.25`), []byte(`"x":47.26`), 1)) // CRC flip in a refresh
	f.Add(stream(refreshed[bytes.IndexByte(refreshed, '\n')+1:]))                  // orphan refresh
	f.Add(append(append([]byte{}, misplaced...), recs...))                         // hello at the wrong offset
	f.Add(withRefresh[:len(withRefresh)-len(end)-5])                               // torn mid-refresh

	f.Fuzz(func(t *testing.T, data []byte) {
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
		var lines []byte
		for _, e := range b.records() {
			var eerr error
			if lines, eerr = wal.AppendEntry(lines, e); eerr != nil {
				t.Fatalf("applied entry %+v does not encode: %v", e, eerr)
			}
		}
		first, body, _ := bytes.Cut(data, []byte("\n"))
		if !bytes.HasPrefix(body, lines) {
			t.Fatalf("applied entries re-encode to %q, not a prefix of the stream body %q", lines, body)
		}
		if applied == 0 && err != nil {
			return
		}
		// Anything applied, or a clean stream, needs a hello for the
		// standby's head first.
		if fr, derr := DecodeFrame(first); derr != nil || fr.Type != FrameHello || fr.Off != 0 {
			t.Fatalf("stream without a leading hello at offset 0 applied %d records (err %v): %q", applied, err, data)
		}
	})
}
