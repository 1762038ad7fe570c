package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
	"time"

	"radloc/internal/node"
	"radloc/internal/scenario"
)

// TestReadmeFlagsExist extracts every radlocd invocation from
// README.md — fenced command lines (joined across backslash
// continuations) and inline code spans — and fails on any -flag the
// daemon's flag set does not define, so the docs cannot keep naming a
// deleted or misspelled flag.
func TestReadmeFlagsExist(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cmds := radlocdCommands(string(data))
	if len(cmds) == 0 {
		t.Fatal("no radlocd invocations found in README.md")
	}
	for _, cmd := range cmds {
		for _, name := range commandFlags(cmd) {
			if !flagDefined(name) {
				t.Errorf("README.md: radlocd has no -%s flag: %s", name, cmd)
			}
		}
	}
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

// radlocdCommands returns the README's command lines and inline code
// spans that mention radlocd. Fenced lines ending in a backslash are
// joined with the next; prose between fences is joined into one
// string so a code span broken across lines is still found.
func radlocdCommands(readme string) []string {
	var out, prose []string
	inFence := false
	pending := ""
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			pending = ""
			continue
		}
		if !inFence {
			prose = append(prose, line)
			continue
		}
		if cont, ok := strings.CutSuffix(strings.TrimRight(line, " \t"), `\`); ok {
			pending += cont + " "
			continue
		}
		out = append(out, pending+line)
		pending = ""
	}
	for _, m := range codeSpan.FindAllStringSubmatch(strings.Join(prose, " "), -1) {
		out = append(out, m[1])
	}
	var cmds []string
	for _, c := range out {
		if invokesRadlocd(strings.Fields(c)) >= 0 {
			cmds = append(cmds, strings.TrimSpace(c))
		}
	}
	return cmds
}

// invokesRadlocd returns the index of the token that runs radlocd
// (radlocd, ./radlocd, /usr/bin/radlocd, go run ./cmd/radlocd), or -1.
func invokesRadlocd(tokens []string) int {
	for i, tok := range tokens {
		if !strings.HasSuffix(tok, "/") && path.Base(tok) == "radlocd" {
			return i
		}
	}
	return -1
}

// commandFlags returns the flag names passed to radlocd on one command
// line: the -name or -name=value tokens after the radlocd token, up to
// the first shell operator or comment.
func commandFlags(cmd string) []string {
	tokens := strings.Fields(cmd)
	i := invokesRadlocd(tokens)
	if i < 0 {
		return nil
	}
	var names []string
	for _, tok := range tokens[i+1:] {
		if strings.ContainsAny(tok[:1], "|&;<>#") {
			break
		}
		name, ok := strings.CutPrefix(tok, "-")
		if !ok || name == "" {
			continue
		}
		name = strings.TrimPrefix(name, "-")
		name, _, _ = strings.Cut(name, "=")
		names = append(names, name)
	}
	return names
}

// flagDefined reports whether radlocd's flag set defines name, by
// parsing it: every value flag accepts "0", and an undefined flag is
// the one parse error that names itself.
func flagDefined(name string) bool {
	err := run(context.Background(), []string{"-" + name + "=0"}, strings.NewReader(""), io.Discard)
	return err == nil || !strings.Contains(err.Error(), "flag provided but not defined")
}

// unreachable fails every request at once: a peer that is down.
type unreachable struct{}

func (unreachable) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("peer unreachable")
}

// TestReadmeNamesEveryMetricFamily boots a node with every subsystem
// that registers metrics switched on — WAL, cluster, failover,
// scrubber, storage probe, zone idling — and fails for each family on
// its /metrics that README.md never names, so the "Monitoring
// radlocd" table cannot fall behind the registry. The node is never
// started: registration happens in New, and its peers are unreachable.
func TestReadmeNamesEveryMetricFamily(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{
		Scenario:      scenario.A(50, false),
		WALDir:        t.TempDir(),
		ClusterSelf:   "http://a",
		Failover:      true,
		Peers:         []string{"http://b"},
		HTTP:          unreachable{},
		ProbeInterval: time.Hour,
		ScrubInterval: time.Hour,
		StorageProbe:  time.Hour,
		ZoneIdle:      time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	families := 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		families++
		// A whole-word match, so a family renamed to a prefix or an
		// extension of a documented name still fails.
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).Match(readme) {
			t.Errorf("README.md does not name metric family %s", name)
		}
	}
	if families == 0 {
		t.Fatalf("/metrics = HTTP %d with no # TYPE lines", rec.Code)
	}
}
