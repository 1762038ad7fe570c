package main

import (
	"bytes"
	"strings"
	"testing"
)

// raceBuild is set by race_test.go when the race detector is on. It
// slows the node several times over, so an open loop can fall behind
// its schedule; the smoke test then tolerates the backlog verdict.
var raceBuild bool

// TestSmoke runs every workload at a small scale with tracing on. A
// traced run also measures the untraced pass its overhead is taken
// against, so its output carries both metric lists: every metric
// BENCHMARK.json lists must be printed with its unit for every
// workload, and the correctness gate must pass.
func TestSmoke(t *testing.T) {
	const config = "../BENCHMARK.json"
	cfg, err := loadConfig(config)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-config", config, "-scale", "0.02", "-seconds", "10", "-trace", "1", "-work", t.TempDir()}, &stdout, &stderr)
	if code != 0 && !raceBuild {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	printed := map[string]bool{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 {
			printed[f[0]+" "+f[1]+" "+f[3]] = true
		}
		if strings.Contains(line, " mismatch ") && !(raceBuild && strings.Contains(line, "backlog")) {
			t.Errorf("correctness gate: %s", line)
		}
	}
	for _, w := range cfg.Workloads {
		for _, m := range append(append([]metricSpec{}, cfg.EndToEnd...), cfg.PerLayer...) {
			if !printed[w.Name+" "+m.Name+" "+m.Unit] {
				t.Errorf("%s: metric %s not printed in %s", w.Name, m.Name, m.Unit)
			}
		}
	}
	if t.Failed() {
		t.Logf("exit %d\nstderr:\n%s", code, stderr.String())
	}
}
