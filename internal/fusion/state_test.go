package fusion

import (
	"reflect"
	"testing"
)

// TestEngineStateRoundTrip is the checkpoint-correctness core: ingest
// half a stream, export → EncodeState → DecodeState → import into a
// fresh engine, continue both halves in lockstep — every snapshot
// field must match bitwise.
func TestEngineStateRoundTrip(t *testing.T) {
	orig, sc := seqEngine(t, 4)
	stream := seqStream(t, sc, 12, 9)
	half := len(stream) / 2

	for _, m := range stream[:half] {
		if _, err := orig.IngestSeq(m); err != nil {
			t.Fatal(err)
		}
	}

	st, err := orig.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := DecodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := seqEngine(t, 4)
	if err := restored.ImportState(st2); err != nil {
		t.Fatal(err)
	}

	// The reorder buffer is intentionally not serialized; the transport
	// redelivers. Model that: the restored engine gets the tail plus
	// redelivery of everything the gate had in flight (duplicates of
	// applied records are shed by the cursors).
	redeliverFrom := half - (4+1)*len(sc.Sensors)
	if redeliverFrom < 0 {
		redeliverFrom = 0
	}
	for _, m := range stream[half:] {
		if _, err := orig.IngestSeq(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range stream[redeliverFrom:] {
		if _, err := restored.IngestSeq(m); err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
	}
	if _, err := orig.FlushPending(); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.FlushPending(); err != nil {
		t.Fatal(err)
	}

	os, rs := orig.Snapshot(), restored.Snapshot()
	if os.Ingested != rs.Ingested || os.Rejected != rs.Rejected {
		t.Fatalf("counters diverged: orig %d/%d, restored %d/%d", os.Ingested, os.Rejected, rs.Ingested, rs.Rejected)
	}
	if !reflect.DeepEqual(comparable(os), comparable(rs)) {
		t.Fatalf("state diverged after restore:\norig %+v\nrestored %+v", os, rs)
	}
}

func TestImportStateUnknownSensor(t *testing.T) {
	e, _ := seqEngine(t, 4)
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	st.Health = append(st.Health, HealthState{SensorID: 99_999})
	if err := e.ImportState(st); err == nil {
		t.Fatal("import accepted health for an unregistered sensor")
	}
}
