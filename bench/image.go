package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	"radloc/internal/fusion"
	"radloc/internal/node"
	"radloc/internal/obs"
	"radloc/internal/scenario"
	"radloc/internal/transport"
	"radloc/internal/vfs"
	"radloc/internal/zone"
)

// nodeConfig is the node every pass boots: radlocd's defaults except
// for the workload's fsync policy. fsys nil is the real filesystem.
func nodeConfig(w *workload, sc scenario.Scenario, seed uint64, dir string, fsys vfs.FS, reg *obs.Registry) node.Config {
	return node.Config{
		Scenario:        sc,
		Seed:            seed,
		WALDir:          dir,
		Fsync:           w.fsync,
		CheckpointEvery: checkpointEvery,
		FS:              fsys,
		Metrics:         reg,
	}
}

// meas converts wire readings to the pipeline's batch type.
func meas(b []transport.Reading) []fusion.Meas {
	out := make([]fusion.Meas, len(b))
	for i, r := range b {
		out[i] = fusion.Meas{SensorID: r.SensorID, CPM: r.CPM, Step: r.Step, Seq: r.Seq}
	}
	return out
}

// zonePath is the zone-scoped form of an API path ("/snapshot" →
// "/zones/z1/snapshot"); the default zone keeps the unnamed route.
func zonePath(zoneName, path string) string {
	if zoneName == zone.DefaultZone {
		return path
	}
	return "/zones/" + zoneName + path
}

// statez is the part of GET /statez the benchmark reads.
type statez struct {
	Durability struct {
		WalOffset      uint64 `json:"walOffset"`
		LastCheckpoint uint64 `json:"lastCheckpoint"`
		Recovery       *struct {
			Replayed uint64 `json:"replayed"`
		} `json:"recovery"`
	} `json:"durability"`
}

// getJSON serves one GET through h in-process and decodes the body.
func getJSON(h http.Handler, path string, v any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, rec.Code, rec.Body.String())
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// buildImage builds the crash image in dir: a warm-up node takes at
// least warm steps per zone through Pipeline().Submit, and its WAL
// directory is copied while the node is still live — the state kill -9
// leaves. Each zone keeps taking steps, up to warmCap, until the WAL
// suffix past its newest checkpoint reaches suffix records, so boot
// replays about the same number of records whatever the seed. It
// returns the number of warm steps each zone took.
func buildImage(w *workload, sc scenario.Scenario, seed uint64, streams []zoneStream,
	warm, warmCap int, suffix uint64, dir string) ([]int, error) {
	live := dir + ".live"
	n, err := node.New(nodeConfig(w, sc, seed, live, nil, nil))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(live)
	took := make([]int, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for zi := range streams {
		wg.Add(1)
		go func(zi int) {
			defer wg.Done()
			took[zi], errs[zi] = warmZone(n, streams[zi], warm, warmCap, suffix)
		}(zi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			_ = n.Shutdown()
			return nil, err
		}
	}
	err = copyTree(live, dir)
	if serr := n.Shutdown(); err == nil {
		err = serr
	}
	return took, err
}

// warmZone feeds one zone's warm steps and returns how many it took.
func warmZone(n *node.Node, zs zoneStream, warm, warmCap int, suffix uint64) (int, error) {
	ctx := context.Background()
	for s := 0; s < warmCap; s++ {
		if s >= warm {
			var st statez
			if err := getJSON(n.Handler(), zonePath(zs.zone, "/statez"), &st); err != nil {
				return 0, err
			}
			if st.Durability.WalOffset-st.Durability.LastCheckpoint >= suffix {
				return s, nil
			}
		}
		for _, b := range zs.steps[s] {
			if _, err := n.Pipeline().Submit(ctx, zs.zone, meas(b)); err != nil {
				return 0, fmt.Errorf("warm-up zone %s step %d: %w", zs.zone, s, err)
			}
		}
	}
	return warmCap, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}
