package fusion

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"radloc/internal/core"
	"radloc/internal/track"
)

// handState is a small engine state built by hand: a few particles
// with unusual bit patterns (NaN, -0, ±Inf, a subnormal), a never-scored
// sensor (nil LastZ encodes NaN) beside a scored one, and the optional
// parts present.
func handState() EngineState {
	z := -1.25
	return EngineState{
		Ingested: 9, Rejected: 1, Refreshes: 2, SinceEst: 3, TrackStep: 4, Journaled: 10,
		Estimates: []core.Estimate{{Strength: 50, Mass: 0.4, Starts: 7}},
		Localizer: core.State{
			Iter: 5,
			Xs:   []float64{1.5, math.NaN(), math.Copysign(0, -1)},
			Ys:   []float64{math.Inf(1), 2, 4.9e-324},
			Ss:   []float64{math.Inf(-1), 3, 1e300},
			Ws:   []float64{0.25, 0.5, 0.25},
			RNG:  []byte{1, 2, 3, 4},
			SensorPos: []core.SensorPos{
				{ID: 1, X: 10, Y: 20},
			},
		},
		Health:       []HealthState{{SensorID: 1, Seen: 3, LastZ: &z}, {SensorID: 2}},
		Tracker:      &track.State{NextID: 3, Tracks: []track.Track{{ID: 1, Hits: 2}}},
		Seqs:         []SeqCursor{{SensorID: 1, Applied: 3}},
		GateReleased: 2,
		Delivery:     DeliveryStats{Duplicates: 1, Buffered: 2},
	}
}

// particleBits returns the state's particle arrays as raw float64 bits.
func particleBits(st EngineState) [4][]uint64 {
	var out [4][]uint64
	for k, arr := range [4][]float64{st.Localizer.Xs, st.Localizer.Ys, st.Localizer.Ss, st.Localizer.Ws} {
		for _, v := range arr {
			out[k] = append(out[k], math.Float64bits(v))
		}
	}
	return out
}

// withoutParticles returns st with its particle arrays dropped, for
// DeepEqual (which treats NaN as unequal to itself).
func withoutParticles(st EngineState) EngineState {
	st.Localizer.Xs, st.Localizer.Ys, st.Localizer.Ss, st.Localizer.Ws = nil, nil, nil, nil
	return st
}

// TestEncodeStateRoundTrip demands a bit-for-bit round trip through the
// binary codec: a live engine with tracking and sequence cursors, a
// fresh engine with a nil tracker, empty cursors and every LastZ NaN,
// a hand-built state of odd float bit patterns, and a state with no
// particles at all. Re-encoding the decoded state reproduces the blob.
func TestEncodeStateRoundTrip(t *testing.T) {
	live, sc := seqEngine(t, 4)
	for _, m := range seqStream(t, sc, 6, 2) {
		if _, err := live.IngestSeq(m); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewEngine(ScenarioConfig(sc, 0))
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]EngineState{"hand-built": handState(), "zero particles": {Delivery: DeliveryStats{Late: 2}}}
	for name, e := range map[string]*Engine{"live": live, "fresh": fresh} {
		if states[name], err = e.ExportState(); err != nil {
			t.Fatal(err)
		}
	}
	if st := states["fresh"]; st.Tracker != nil || len(st.Seqs) != 0 || st.Health[0].LastZ != nil {
		t.Fatalf("fresh engine state is not the nil-tracker, no-cursor, NaN-LastZ case: %+v", st.Health[0])
	}
	for name, st := range states {
		t.Run(name, func(t *testing.T) {
			blob, err := EncodeState(st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeState(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(particleBits(got), particleBits(st)) {
				t.Error("particle bits changed in the round trip")
			}
			if !reflect.DeepEqual(withoutParticles(got), withoutParticles(st)) {
				t.Errorf("state changed in the round trip:\n got %+v\nwant %+v", withoutParticles(got), withoutParticles(st))
			}
			again, err := EncodeState(got)
			if err != nil || !bytes.Equal(again, blob) {
				t.Errorf("re-encoding the decoded state gave different bytes (err %v)", err)
			}
		})
	}
}

// TestDecodeStateRefusesJSON: a state serialized with encoding/json, as
// releases before the binary codec wrote it into checkpoints, is the
// retired format: DecodeState names it instead of reading it.
func TestDecodeStateRefusesJSON(t *testing.T) {
	e, sc := seqEngine(t, 4)
	for _, m := range seqStream(t, sc, 6, 2) {
		if _, err := e.IngestSeq(m); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	retired, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeState(retired); !errors.Is(err, ErrRetiredState) || !reflect.DeepEqual(got, EngineState{}) {
		t.Fatalf("JSON state: got %+v, err %v; want ErrRetiredState and nothing decoded", got, err)
	}
	blob, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeState(blob); err != nil {
		t.Fatalf("the binary form of the same state: %v", err)
	}
}

// TestDecodeStateRejectsDamage: every truncation of a valid blob, a
// trailing byte, and length fields claiming more than the blob holds
// are errors.
func TestDecodeStateRejectsDamage(t *testing.T) {
	blob, err := EncodeState(handState())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeState(blob[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(blob))
		}
	}
	if _, err := DecodeState(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	hlen := int(binary.LittleEndian.Uint32(blob[len(stateMagic):]))
	for _, tc := range []struct {
		name string
		at   int
		put  func([]byte)
	}{
		{"huge header", len(stateMagic), func(b []byte) { binary.LittleEndian.PutUint32(b, math.MaxUint32) }},
		{"huge count", len(stateMagic) + 4 + hlen, func(b []byte) { binary.LittleEndian.PutUint64(b, 1<<61) }},
		{"count off by one", len(stateMagic) + 4 + hlen, func(b []byte) { binary.LittleEndian.PutUint64(b, 4) }},
	} {
		bad := append([]byte(nil), blob...)
		tc.put(bad[tc.at:])
		if _, err := DecodeState(bad); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestEncodeStateRejectsRaggedParticles: the four particle arrays must
// have one length.
func TestEncodeStateRejectsRaggedParticles(t *testing.T) {
	st := handState()
	st.Localizer.Ws = st.Localizer.Ws[:2]
	if _, err := EncodeState(st); err == nil {
		t.Fatal("ragged particle arrays encoded")
	}
}

// FuzzDecodeState: no input panics the decoder or makes it allocate
// more than a fixed multiple of its length (a short blob claiming a
// huge particle count or header must fail before allocating), and a
// blob that decodes re-encodes to a stable fixed point.
func FuzzDecodeState(f *testing.F) {
	hand, err := EncodeState(handState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hand)
	empty, _ := EncodeState(EngineState{})
	f.Add(empty)
	retired, _ := json.Marshal(withoutParticles(handState()))
	f.Add(retired)
	f.Add([]byte(`{"localizer":{"xs":[1,2],"ys":[3,4],"ss":[5,6],"ws":[7,8]}}`))
	f.Add([]byte(stateMagic + "\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := DecodeState(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 128*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if len(data) > 0 && data[0] == '{' && !errors.Is(err, ErrRetiredState) {
			t.Fatalf("a JSON document gave %v, want ErrRetiredState", err)
		}
		if err != nil {
			return
		}
		blob, err := EncodeState(st)
		if err != nil {
			t.Fatalf("a decoded state does not re-encode: %v", err)
		}
		st2, err := DecodeState(blob)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		again, err := EncodeState(st2)
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("encoding is not a fixed point (err %v)", err)
		}
	})
}
