package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatch fails when an alternative of a `go test -run`
// pattern in the CI workflow matches no test function in the packages
// that command runs, or when a `-fuzz` pattern there matches other than
// exactly one fuzz target in them. `go test -run` passes when nothing
// matches, and so does `go test -fuzz` ("no fuzz tests to fuzz"), so a
// renamed test or target would otherwise drop out of the step that
// selects it by name without a failure. -run=NONE, which the fuzz
// steps use to run no tests at all, is the one pattern meant to match
// nothing.
func TestCIRunPatternsMatch(t *testing.T) {
	root := repoRoot(t)
	workflow, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked, fuzzed := 0, 0
	for _, cmd := range goTestCommands(string(workflow)) {
		if cmd.fuzz != "" {
			fuzzed++
			re, err := regexp.Compile(cmd.fuzz)
			if err != nil {
				t.Errorf("ci.yml: -fuzz %q: %v", cmd.fuzz, err)
				continue
			}
			var matched []string
			for _, pkg := range cmd.pkgs {
				for _, name := range testFuncs(t, root, pkg, "Fuzz") {
					if re.MatchString(name) {
						matched = append(matched, name)
					}
				}
			}
			if len(cmd.pkgs) != 1 || len(matched) != 1 {
				t.Errorf("ci.yml: -fuzz %q matches %v in %v, want exactly one fuzz target in one package", cmd.fuzz, matched, cmd.pkgs)
			}
		}
		if cmd.run == "" || cmd.run == "NONE" {
			continue
		}
		if len(cmd.pkgs) == 0 {
			t.Errorf("ci.yml: go test -run %q names no package", cmd.run)
			continue
		}
		var names []string
		for _, pkg := range cmd.pkgs {
			names = append(names, testFuncs(t, root, pkg, "Test")...)
		}
		for _, alt := range topLevelAlternatives(cmd.run) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			checked++
			matched := false
			for _, name := range names {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml: -run alternative %q matches no test in %v", alt, cmd.pkgs)
			}
		}
	}
	if checked == 0 || fuzzed == 0 {
		t.Fatal("found no go test -run or -fuzz pattern in ci.yml; is the repository root right?")
	}
	t.Logf("%d -run alternatives and %d -fuzz patterns in ci.yml checked", checked, fuzzed)
}

// goTestCmd is one `go test` invocation: its -run and -fuzz patterns
// ("" when it has none) and the package patterns it names.
type goTestCmd struct {
	run, fuzz string
	pkgs      []string
}

// goTestCommands finds every `go test` invocation in a workflow's
// shell lines. A command ends at &&, ;, or a pipe; single and double
// quotes group words the way the shell does.
func goTestCommands(workflow string) []goTestCmd {
	var cmds []goTestCmd
	for _, line := range strings.Split(workflow, "\n") {
		words := shellWords(line)
		for i := 0; i+1 < len(words); i++ {
			if words[i] != "go" || words[i+1] != "test" {
				continue
			}
			var cmd goTestCmd
			for j := i + 2; j < len(words); j++ {
				w := words[j]
				if w == "&&" || w == "||" || w == "|" || w == ";" {
					break
				}
				switch {
				case w == "-run" && j+1 < len(words):
					j++
					cmd.run = words[j]
				case strings.HasPrefix(w, "-run="):
					cmd.run = strings.TrimPrefix(w, "-run=")
				case w == "-fuzz" && j+1 < len(words):
					j++
					cmd.fuzz = words[j]
				case strings.HasPrefix(w, "-fuzz="):
					cmd.fuzz = strings.TrimPrefix(w, "-fuzz=")
				case strings.HasPrefix(w, "./"):
					cmd.pkgs = append(cmd.pkgs, w)
				}
			}
			cmds = append(cmds, cmd)
		}
	}
	return cmds
}

// shellWords splits one shell line into words, removing the quotes
// around quoted words and keeping &&, ||, | and ; as words of their
// own.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	flush := func() {
		if inWord {
			words = append(words, cur.String())
			cur.Reset()
			inWord = false
		}
	}
	rs := []rune(line)
	for i := 0; i < len(rs); i++ {
		r := rs[i]
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			flush()
		case r == '&' || r == '|' || r == ';':
			flush()
			op := string(r)
			if r != ';' && i+1 < len(rs) && rs[i+1] == r {
				op += string(r)
				i++
			}
			words = append(words, op)
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	flush()
	return words
}

// topLevelAlternatives splits a -run pattern's first level (the part
// that selects top-level tests, before any unbracketed '/') on its
// unbracketed '|'.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|', '/':
			if depth > 0 {
				continue
			}
			alts = append(alts, pattern[start:i])
			if r == '/' {
				return alts
			}
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}

// testFuncs lists the functions whose names start with prefix ("Test"
// or "Fuzz") declared in the _test.go files of the package directory
// pkg (relative to root), or of every package under it when pkg ends
// in "/...".
func testFuncs(t *testing.T, root, pkg, prefix string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(filepath.Join(root, filepath.FromSlash(pkg)), string(filepath.Separator)+"...")
	var names []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != dir && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, prefix) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ci.yml names package %s: %v", pkg, err)
	}
	return names
}
