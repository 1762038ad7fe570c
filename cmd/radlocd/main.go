// Command radlocd is the fusion-center daemon: it loads a sensor
// deployment from a JSON scenario file, then consumes measurements and
// serves source estimates, either over stdin/stdout pipes or over HTTP.
//
// Pipe mode (default):
//
//	radlocd -config deployment.json < measurements.ndjson
//
// reads newline-delimited JSON measurements {"sensorId":3,"cpm":17}
// from stdin, applies every one in input order (a producer faster than
// the engine waits on the pipe; nothing is shed), and writes a JSON
// snapshot line after every -report-every measurements.
//
// HTTP mode:
//
//	radlocd -config deployment.json -listen 127.0.0.1:8080
//
// serves POST /measurements (a single measurement or an array),
// GET /snapshot, GET /sensors (per-sensor health), GET /healthz
// (liveness) and GET /readyz (readiness).
//
// -config also accepts a flags file: a JSON object whose keys are
// flag names ({"listen":":8080","wal-dir":"/data","scenario":
// "deployment.json"}), with "scenario" naming the deployment file
// (resolved relative to the flags file). The two shapes are told
// apart by their keys — a scenario file carries "sensors"/"version" —
// and flags given explicitly on the command line always win over file
// values.
//
// Both modes are sharded into named zones, each a fusion engine of its
// own behind a single-writer event loop: POST /zones/{zone}/
// measurements (or a "zone" field on a pipe-mode record) routes a
// reading, GET /zones lists the live zones, and GET /zones/{zone}/
// {snapshot,stats,sensors,statez} read one zone. The classic unnamed
// routes alias the always-live default zone, so a pre-zone deployment
// keeps its exact behavior — including its WAL layout: the default
// zone's log stays at -wal-dir itself, named zones get
// -wal-dir/zones/<name>, and boot recovery replays every zone found
// on disk.
//
// SIGINT/SIGTERM shut either mode down gracefully: the pipe flushes a
// final snapshot line, the HTTP server drains in-flight requests and
// logs a final snapshot.
//
// The daemon itself lives in internal/node: main parses flags into a
// node.Config and calls node.Run. Embedders (and the chaos tests)
// build node.Nodes directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"radloc/internal/cluster"
	"radloc/internal/config"
	"radloc/internal/node"
	"radloc/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radlocd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("radlocd", flag.ContinueOnError)
	var (
		cfgPath     = fs.String("config", "", "JSON scenario file with the sensor deployment, or a JSON flags file with a \"scenario\" key (required)")
		listen      = fs.String("listen", "", "HTTP listen address; empty = stdin/stdout pipe mode")
		reportEvery = fs.Int("report-every", 0, "pipe mode: snapshot after this many measurements (default: one sensor round)")
		seed        = fs.Uint64("seed", 1, "localizer random seed")
		withTracks  = fs.Bool("tracks", true, "maintain confirmed tracks over estimates")
		noHealth    = fs.Bool("no-health", false, "disable the per-sensor health monitor (trust every reading)")
		walDir      = fs.String("wal-dir", "", "durability directory for the write-ahead log and checkpoints; empty = durability off")
		fsyncMode   = fs.String("fsync", "batch", "WAL fsync policy: always (sync per record), batch (sync at checkpoints/shutdown) or never")
		ckptEvery   = fs.Int("checkpoint-every", 1000, "checkpoint the engine state every N journaled records (0 = only at shutdown)")
		walSegment  = fs.Int("wal-segment", 0, "rotate WAL segments after this many records (0 = the WAL's default); smaller segments scrub and prune in finer grain")
		httpQueue   = fs.Int("http-queue", 64, "HTTP mode: admission queue depth; requests beyond it are shed with 429 + Retry-After")
		maxBody     = fs.Int64("max-body", 1<<20, "HTTP mode: request body byte bound (413 over it)")
		retryAfter  = fs.Duration("retry-after", time.Second, "HTTP mode: Retry-After hint on 429 responses")
		rate        = fs.Float64("rate", 0, "HTTP mode: per-sensor sustained readings/sec token-bucket rate limit (0 = off)")
		burst       = fs.Float64("burst", 0, "HTTP mode: per-sensor token-bucket burst (default 4×-rate)")
		readTO      = fs.Duration("read-timeout", 15*time.Second, "HTTP mode: server read timeout (slow-loris guard)")
		writeTO     = fs.Duration("write-timeout", 30*time.Second, "HTTP mode: server write timeout")
		idleTO      = fs.Duration("idle-timeout", 2*time.Minute, "HTTP mode: keep-alive idle connection timeout")
		pprofOn     = fs.Bool("pprof", false, "HTTP mode: serve net/http/pprof profiles under /debug/pprof/ (off by default)")
		maxZones    = fs.Int("max-zones", 64, "cap on concurrently live fusion zones; creating one more is refused (HTTP 503)")
		zoneIdle    = fs.Duration("zone-idle", 0, "evict a named zone idle this long, after a final checkpoint (0 = never; the default zone is never evicted)")
		probeStor   = fs.Duration("storage-probe", time.Second, "how often a degraded zone re-tests its WAL for recovery (jittered ±20%; 0 = never, only organic writes recover)")
		scrubEvery  = fs.Duration("scrub-interval", 15*time.Minute, "integrity scrubber pacing: one cold WAL segment or checkpoint sweep per zone per interval (0 = scrubbing off)")
		clusterSelf = fs.String("cluster-self", "", "this node's base URL as peers reach it (e.g. http://10.0.0.1:8080); enables cluster mode (requires -listen and -wal-dir)")
		clusterRts  = fs.String("cluster-routes", "", "JSON zone-to-node routing table; standby zones start replicating at boot")
		clusterTok  = fs.String("cluster-token", "", "bearer token guarding the /cluster endpoints and attached to outgoing replication pulls")
		replEvery   = fs.Duration("repl-interval", 500*time.Millisecond, "standby idle poll period between replication pulls")
		replBatch   = fs.Int("repl-batch", 4096, "max WAL records per replication pull")
		failoverOn  = fs.Bool("failover", false, "probe -cluster-peers and self-promote standby zones when their primary dies (requires -cluster-self)")
		peersCSV    = fs.String("cluster-peers", "", "comma-separated peer base URLs the failure detector probes")
		probeEvery  = fs.Duration("probe-interval", 2*time.Second, "failover: base peer probe period (jittered ±20%)")
		suspectN    = fs.Int("suspect-misses", 3, "failover: consecutive probe misses before a peer is suspected")
		holdDown    = fs.Duration("holddown", 10*time.Second, "failover: how long a suspected peer must stay unreachable before it is declared dead (flap damping)")
		maxPromLag  = fs.Uint64("max-promote-lag", 0, "failover: refuse unattended promotion when replication lag exceeds this many records (0 = must be fully caught up)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cfgPath == "" {
		return fmt.Errorf("missing -config (a JSON scenario file; generate one with `radloc config emit A`)")
	}
	scenarioData, err := resolveConfigFile(fs, *cfgPath)
	if err != nil {
		return err
	}
	sc, err := config.LoadScenario(scenarioData)
	if err != nil {
		return err
	}

	pol := wal.FsyncNever
	if *walDir != "" {
		if pol, err = wal.ParseFsyncPolicy(*fsyncMode); err != nil {
			return err
		}
	}
	var seedRoutes *cluster.Routes
	if *clusterRts != "" {
		rt, rerr := cluster.LoadRoutes(*clusterRts)
		if rerr != nil {
			return rerr
		}
		seedRoutes = &rt
	}

	return node.Run(ctx, node.Config{
		Scenario: sc,
		Seed:     *seed,
		NoTracks: !*withTracks,
		NoHealth: *noHealth,

		Listen:      *listen,
		ReportEvery: *reportEvery,

		WALDir:          *walDir,
		Fsync:           pol,
		CheckpointEvery: *ckptEvery,
		WALSegment:      *walSegment,
		StorageProbe:    *probeStor,
		ScrubInterval:   *scrubEvery,

		MaxZones: *maxZones,
		ZoneIdle: *zoneIdle,

		HTTPQueue:    *httpQueue,
		MaxBody:      *maxBody,
		RetryAfter:   *retryAfter,
		Rate:         *rate,
		Burst:        *burst,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		IdleTimeout:  *idleTO,
		Pprof:        *pprofOn,

		ClusterSelf:  *clusterSelf,
		ClusterToken: *clusterTok,
		SeedRoutes:   seedRoutes,
		ReplInterval: *replEvery,
		ReplBatch:    *replBatch,

		Failover:      *failoverOn,
		Peers:         splitPeers(*peersCSV),
		ProbeInterval: *probeEvery,
		SuspectMisses: *suspectN,
		HoldDown:      *holdDown,
		MaxPromoteLag: *maxPromLag,

		Log: os.Stderr,
	}, stdin, stdout)
}

// resolveConfigFile reads -config and returns the scenario JSON it
// leads to. Two shapes are accepted, told apart by their keys: a
// scenario file (the legacy meaning — carries "sensors" and
// "version") is returned as-is; anything else is a flags file, a JSON
// object whose keys are flag names plus "scenario" naming the
// deployment file, resolved relative to the flags file itself. File
// values apply only to flags not set explicitly on the command line —
// the command line always wins.
func resolveConfigFile(fs *flag.FlagSet, path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		// Not a JSON object at all: let the scenario loader produce its
		// own (better) error.
		return data, nil
	}
	if _, isScenario := keys["sensors"]; isScenario {
		return data, nil
	}
	if _, isScenario := keys["version"]; isScenario {
		return data, nil
	}

	// Flags file. Explicitly-set command-line flags win; collect them
	// before touching anything.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var scenarioPath string
	// Apply in sorted order so a bad file fails on the same key every
	// run.
	names := make([]string, 0, len(keys))
	for name := range keys {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == "scenario" {
			if err := json.Unmarshal(keys[name], &scenarioPath); err != nil {
				return nil, fmt.Errorf("flags file %s: \"scenario\" must be a path string: %v", path, err)
			}
			continue
		}
		if name == "config" {
			return nil, fmt.Errorf("flags file %s: a flags file cannot set -config (use \"scenario\" for the deployment)", path)
		}
		if fs.Lookup(name) == nil {
			return nil, fmt.Errorf("flags file %s: unknown flag %q (a scenario file would have \"sensors\"; a flags file's keys must be radlocd flag names)", path, name)
		}
		if explicit[name] {
			continue
		}
		var val any
		if err := json.Unmarshal(keys[name], &val); err != nil {
			return nil, fmt.Errorf("flags file %s: key %q: %v", path, name, err)
		}
		// flag.Set parses strings: JSON strings pass through (covering
		// durations like "500ms"), numbers and bools format naturally.
		var s string
		switch v := val.(type) {
		case string:
			s = v
		case bool:
			s = fmt.Sprintf("%v", v)
		case float64:
			// Integers round-trip exactly; %v would add an exponent for
			// large WAL offsets.
			if v == float64(int64(v)) {
				s = fmt.Sprintf("%d", int64(v))
			} else {
				s = fmt.Sprintf("%v", v)
			}
		default:
			return nil, fmt.Errorf("flags file %s: key %q: value must be a string, number or bool", path, name)
		}
		if err := fs.Set(name, s); err != nil {
			return nil, fmt.Errorf("flags file %s: key %q: %v", path, name, err)
		}
	}
	if scenarioPath == "" {
		return nil, fmt.Errorf("flags file %s: missing \"scenario\" (the deployment JSON the daemon loads)", path)
	}
	if !filepath.IsAbs(scenarioPath) {
		scenarioPath = filepath.Join(filepath.Dir(path), scenarioPath)
	}
	return os.ReadFile(scenarioPath)
}

// splitPeers parses the -cluster-peers list: comma-separated base
// URLs, blanks tolerated.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
