package node

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"radloc/internal/fusion"
	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/track"
	"radloc/internal/wal"
)

// TestCorruptTailRecovery: a torn final record plus a bit-flipped
// record must truncate cleanly at boot — reported, never fatal — and
// the daemon must serve normally afterward.
func TestCorruptTailRecovery(t *testing.T) {
	sc := scenario.A(50, false)
	const rounds, window = 6, 2
	build := func(j fusion.Journal) (*fusion.Engine, error) {
		fcfg := fusion.ScenarioConfig(sc, 7)
		fcfg.Tracking = &track.Config{}
		fcfg.Journal = j
		fcfg.ReorderWindow = window
		return fusion.NewEngine(fcfg)
	}
	dir := t.TempDir()
	engine, d, err := openDurable(dir, nil, wal.FsyncNever, 50, 0, build, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.NewNamed(3, "corrupt-tail/measure")
	for step := 0; step < rounds; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			if _, err := engine.IngestSeq(fusion.Meas{SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1)}); err != nil {
				t.Fatal(err)
			}
			d.maybeCheckpoint(io.Discard)
		}
	}
	// Rounds past the watermark are journaled; the held tail is not
	// durable by design (redelivery would restore it).
	journaled := (rounds - window) * len(sc.Sensors)
	// Crash: no d.close(), no final checkpoint. Flush OS buffers only.
	if err := d.log.Sync(); err != nil {
		t.Fatal(err)
	}

	// Sabotage the newest segment: flip a byte mid-record, then tear
	// the final record. Also delete all checkpoints so recovery must
	// replay the surviving WAL from zero.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.ndjson"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	blob, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	recs := bytes.SplitAfter(blob, []byte("\n")) // trailing "" element after the final newline
	flip := recs[len(recs)-3]                    // second-to-last record: bit-flip its middle
	flip[len(flip)/2] ^= 0x08
	torn := recs[len(recs)-2] // last record: tear it mid-line
	recs[len(recs)-2] = torn[:len(torn)-7]
	if err := os.WriteFile(last, bytes.Join(recs, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.json"))
	if len(cks) == 0 {
		t.Fatal("checkpoint cadence never fired")
	}
	for _, ck := range cks {
		os.Remove(ck)
	}

	zs, err := newZoneSet(zoneSetOptions{
		WalRoot: dir, Fsync: wal.FsyncNever, CkptEvery: 50,
		Build: func(j fusion.Journal, _ *obs.Registry) (*fusion.Engine, error) { return build(j) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := zs.recoverZones(); err != nil {
		t.Fatalf("recovery must repair, not fail: %v", err)
	}
	def := zs.defaultZone()
	st := statez(def.Snapshot(), zoneDurable(def), nil)
	recov := st.Durability.Recovery
	if recov.TruncatedRecords == 0 {
		t.Errorf("corruption not reported: %+v", recov)
	}
	if recov.CheckpointUsed || recov.Replayed == 0 {
		t.Errorf("expected cold replay of the surviving WAL: %+v", recov)
	}
	if got := def.Snapshot().Ingested; got != uint64(journaled-2) {
		t.Errorf("recovered ingested = %d, want %d (bit-flipped + torn records lost)", got, journaled-2)
	}

	// And the daemon serves: snapshot, statez, fresh ingest.
	srv := zonedTestServer(t, zs)
	resp, err := http.Get(srv.URL + "/statez")
	if err != nil {
		t.Fatal(err)
	}
	var sz statezJSON
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sz.Durability.Enabled || sz.Durability.Recovery.TruncatedRecords == 0 {
		t.Errorf("/statez recovery report: %+v", sz.Durability)
	}
	body := fmt.Sprintf(`{"sensorId":%d,"cpm":40,"step":4,"seq":5}`, sc.Sensors[0].ID)
	resp, err = http.Post(srv.URL+"/measurements", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]int
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if ack["accepted"] != 1 {
		t.Errorf("post-recovery ingest refused: %v", ack)
	}
	if err := zs.close(); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyCheckpoint writes st at its journal offset the way
// releases before the binary checkpoint format did: the engine state
// as JSON, inside the JSON envelope {"crc","applied","state"} with the
// CRC-32 (IEEE) of the state bytes.
func writeLegacyCheckpoint(t *testing.T, dir string, st fusion.EngineState) {
	t.Helper()
	state, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(struct {
		CRC     uint32          `json:"crc"`
		Applied uint64          `json:"applied"`
		State   json.RawMessage `json:"state"`
	}{crc32.ChecksumIEEE(state), st.Journaled, state})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.json", st.Journaled))
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBootFromLegacyJSONCheckpoint is the in-place upgrade: a zone
// directory whose newest checkpoint is in the previous release's JSON
// envelope with JSON state — and whose WAL below it is pruned, so the
// checkpoint is the only way back — boots, its engine state equals an
// engine that was never interrupted, it stays equal as ingest
// continues, and the next checkpoint it writes is binary.
func TestBootFromLegacyJSONCheckpoint(t *testing.T) {
	sc := scenario.A(50, false)
	sc.Params.NumParticles = 500
	build := func(j fusion.Journal) (*fusion.Engine, error) {
		fcfg := fusion.ScenarioConfig(sc, 11)
		fcfg.Tracking = &track.Config{}
		fcfg.Journal = j
		return fusion.NewEngine(fcfg)
	}
	stream := rng.NewNamed(5, "legacy-checkpoint/measure")
	var readings []fusion.Meas
	for step := 0; step < 8; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			readings = append(readings, fusion.Meas{SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1)})
		}
	}
	half := len(readings) / 2
	ingest := func(e *fusion.Engine, ms []fusion.Meas) {
		t.Helper()
		for _, m := range ms {
			if _, err := e.IngestSeq(m); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.FlushPending(); err != nil {
			t.Fatal(err)
		}
	}
	encoded := func(e *fusion.Engine) []byte {
		t.Helper()
		st, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := fusion.EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	// The uninterrupted reference, durable in a directory of its own.
	ref, refD, err := openDurable(t.TempDir(), nil, wal.FsyncNever, 0, 0, build, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer refD.log.Close()
	ingest(ref, readings[:half])

	// The old release ran the first half, wrote its JSON checkpoint,
	// pruned the WAL below it, and stopped without a final checkpoint.
	dir := t.TempDir()
	old, oldD, err := openDurable(dir, nil, wal.FsyncNever, 0, 20, build, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ingest(old, readings[:half])
	st, err := old.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := oldD.log.Sync(); err != nil {
		t.Fatal(err)
	}
	writeLegacyCheckpoint(t, dir, st)
	if err := oldD.log.Prune(st.Journaled); err != nil {
		t.Fatal(err)
	}
	if err := oldD.log.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	upgraded, d, err := openDurable(dir, nil, wal.FsyncNever, 0, 20, build, reg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d.log.Close()
	if rec := d.recovery; !rec.CheckpointUsed || rec.CheckpointApplied != st.Journaled || rec.WalRecords >= st.Journaled {
		t.Fatalf("recovery %+v: want the legacy checkpoint at %d used over a pruned WAL", rec, st.Journaled)
	}
	if got := statez(upgraded.Snapshot(), d, nil).Durability.Recovery.ImportSeconds; got <= 0 {
		t.Errorf("recovery.importSeconds = %v, want the measured checkpoint import time", got)
	}
	if !bytes.Equal(encoded(upgraded), encoded(ref)) {
		t.Fatal("engine booted from the legacy checkpoint differs from the uninterrupted one")
	}
	ingest(ref, readings[half:])
	ingest(upgraded, readings[half:])
	if !bytes.Equal(encoded(upgraded), encoded(ref)) {
		t.Fatal("upgraded engine diverged from the uninterrupted one after more ingest")
	}

	if err := d.checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck, ok, err := wal.LoadCheckpointFS(nil, dir)
	if err != nil || !ok || ck.Applied != d.log.Offset() {
		t.Fatalf("next checkpoint: ok=%v err=%v applied=%d, WAL at %d", ok, err, ck.Applied, d.log.Offset())
	}
	raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.json", ck.Applied)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("RLCK")) || bytes.HasPrefix(ck.State, []byte("{")) {
		t.Fatalf("next checkpoint is not binary: starts %q", raw[:min(len(raw), 16)])
	}
	if _, err := fusion.DecodeState(ck.State); err != nil {
		t.Fatal(err)
	}
}
