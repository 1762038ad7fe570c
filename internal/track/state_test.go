package track

import (
	"encoding/json"
	"reflect"
	"testing"

	"radloc/internal/core"
	"radloc/internal/geometry"
)

// TestStateRoundTrip: export mid-stream, restore into a fresh manager,
// continue both with identical estimate sets — the track sets must
// stay identical.
func TestStateRoundTrip(t *testing.T) {
	ests := func(step int) []core.Estimate {
		out := []core.Estimate{{Pos: geometry.V(20+float64(step%3), 30), Strength: 40, Mass: 0.5}}
		if step >= 2 && step <= 6 {
			out = append(out, core.Estimate{Pos: geometry.V(70, 75), Strength: 20, Mass: 0.3})
		}
		return out
	}

	orig := NewManager(Config{})
	for step := 0; step < 5; step++ {
		orig.Update(step, ests(step))
	}
	st := orig.ExportState()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 State
	if err := json.Unmarshal(blob, &st2); err != nil {
		t.Fatal(err)
	}
	restored := NewManager(Config{})
	restored.ImportState(st2)

	for step := 5; step < 12; step++ {
		orig.Update(step, ests(step))
		restored.Update(step, ests(step))
	}
	if !reflect.DeepEqual(orig.ExportState(), restored.ExportState()) {
		t.Fatalf("track sets diverged:\n%v\nvs\n%v", orig.ExportState(), restored.ExportState())
	}
	if !reflect.DeepEqual(orig.Confirmed(), restored.Confirmed()) {
		t.Fatal("confirmed sets diverged")
	}
}

func TestImportStateEmpty(t *testing.T) {
	m := NewManager(Config{})
	m.ImportState(State{})
	m.Update(0, []core.Estimate{{Pos: geometry.V(1, 1), Strength: 10, Mass: 1}})
	if got := m.ExportState().Tracks; len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("IDs must restart at 1 after empty import, got %v", got)
	}
}
