package node

// Shared test harness: sequenced measurement streams and snapshot-line
// helpers used across the pipe, durability and chaos tests.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"radloc/internal/rng"
	"radloc/internal/scenario"
)

// seqMeasurementsNDJSON renders `steps` rounds of sequence-stamped
// readings (the full wire form: step + seq).
func seqMeasurementsNDJSON(t *testing.T, sc scenario.Scenario, steps int) []string {
	t.Helper()
	stream := rng.NewNamed(9, "radlocd-test/measure")
	var lines []string
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			lines = append(lines, fmt.Sprintf(`{"sensorId":%d,"cpm":%d,"step":%d,"seq":%d}`, sen.ID, m.CPM, step, step+1))
		}
	}
	return lines
}

// lastSnapshotLine parses the final line of pipe-mode output as a
// snapshot.
func lastSnapshotLine(t *testing.T, output string) snapshotJSON {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(output), "\n")
	var snap snapshotJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &snap); err != nil {
		t.Fatalf("last output line is not a snapshot: %v\n%s", err, output)
	}
	return snap
}

// filterState strips the delivery bookkeeping from a snapshot, leaving
// the fields that must be invariant under crash/redelivery/reordering.
func filterState(s snapshotJSON) snapshotJSON {
	s.Delivery = nil
	s.Journaled = 0
	s.Malformed = 0
	return s
}
