package node

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"radloc/internal/fusion"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/wal"
)

// TestCorruptTailRecovery: a torn final record plus a bit-flipped
// record must truncate cleanly at boot — reported, never fatal — and
// the daemon must serve normally afterward.
func TestCorruptTailRecovery(t *testing.T) {
	sc := scenario.A(50, false)
	const rounds, window = 6, 2
	dir := t.TempDir()
	cfg := Config{
		Scenario: sc, Seed: 7, ReorderWindow: window,
		WALDir: dir, Fsync: wal.FsyncNever, CheckpointEvery: 50,
	}
	build := func(j fusion.Journal) (*fusion.Engine, error) { return cfg.engine(j, nil) }
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
			d.maybeCheckpoint()
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
	// A refresh entry may follow the final reading; drop it, so the
	// sabotage hits the last two readings and the torn one is the tail.
	for !bytes.Contains(recs[len(recs)-2], []byte(`,"rec":`)) {
		recs = append(recs[:len(recs)-2], recs[len(recs)-1])
	}
	flip := recs[len(recs)-3] // second-to-last record: bit-flip its middle
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

	n, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery must repair, not fail: %v", err)
	}
	t.Cleanup(func() { _ = n.Shutdown() })
	def := n.zs.defaultZone()
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
	srv := zonedTestServer(t, n)
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
	if err := n.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestBootRefusesRetiredCheckpoint: a zone directory whose newest
// checkpoint is in a retired format — the JSON envelope
// {"crc","applied","state"}, or the binary envelope around a JSON
// engine state — and whose WAL below it is pruned, so the checkpoint is
// the only way back, fails to boot with an error naming the file. It
// neither skips the checkpoint nor sets it aside: either would boot an
// engine that silently lost the pruned history.
func TestBootRefusesRetiredCheckpoint(t *testing.T) {
	sc := scenario.A(50, false)
	sc.Params.NumParticles = 500
	build := func(j fusion.Journal) (*fusion.Engine, error) {
		fcfg := fusion.ScenarioConfig(sc, 11)
		fcfg.Journal = j
		return fusion.NewEngine(fcfg)
	}
	stream := rng.NewNamed(5, "retired-checkpoint/measure")
	for _, tc := range []struct {
		name string
		want error
		blob func(applied uint64, state []byte) []byte
	}{
		{"JSON envelope", wal.ErrRetiredCheckpoint, func(applied uint64, state []byte) []byte {
			env, err := json.Marshal(struct {
				CRC     uint32          `json:"crc"`
				Applied uint64          `json:"applied"`
				State   json.RawMessage `json:"state"`
			}{crc32.ChecksumIEEE(state), applied, state})
			if err != nil {
				t.Fatal(err)
			}
			return env
		}},
		{"JSON state", fusion.ErrRetiredState, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old, oldD, err := openDurable(dir, nil, wal.FsyncNever, 0, 20, build, nil, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 4; step++ {
				for _, sen := range sc.Sensors {
					m := sen.Measure(stream, sc.Sources, nil, step)
					if _, err := old.IngestSeq(fusion.Meas{SensorID: sen.ID, CPM: m.CPM, Step: step}); err != nil {
						t.Fatal(err)
					}
				}
			}
			st, err := old.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			state, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			path := wal.CheckpointPath(dir, st.Journaled)
			if tc.blob != nil {
				err = os.WriteFile(path, tc.blob(st.Journaled, state), 0o644)
			} else {
				err = wal.WriteCheckpointFS(nil, dir, wal.Checkpoint{Applied: st.Journaled, State: state})
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := oldD.log.Prune(st.Journaled); err != nil {
				t.Fatal(err)
			}
			if err := oldD.log.Close(); err != nil {
				t.Fatal(err)
			}

			_, _, err = openDurable(dir, nil, wal.FsyncNever, 0, 20, build, nil, io.Discard)
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), path) {
				t.Fatalf("boot over a retired checkpoint: err %v; want %v naming %s", err, tc.want, path)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("the retired checkpoint did not stay in place: %v", err)
			}
		})
	}
}
