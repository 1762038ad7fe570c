package main

import (
	"context"
	"io"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
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
