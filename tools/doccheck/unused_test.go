package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedExemptDirs hold non-test files whose exports exist for tests
// only, so having no non-test caller is their purpose.
var unusedExemptDirs = map[string]string{
	"internal/node/nodetest": "test scaffolding: a non-test package only _test.go files import",
}

// unusedExemptNames are method names that satisfy an interface some
// other package calls through, so their callers never spell the name
// in this repository.
var unusedExemptNames = map[string]string{
	"String":    "fmt.Stringer, called by the fmt verbs",
	"Error":     "error, called by fmt and errors",
	"Unwrap":    "errors.Is/As walk wrapped errors through it",
	"ServeHTTP": "http.Handler, called by net/http",
	"RoundTrip": "http.RoundTripper, called by http.Client",
	"Len":       "sort.Interface and heap.Interface, called by sort and container/heap",
	"Less":      "sort.Interface and heap.Interface, called by sort and container/heap",
	"Swap":      "sort.Interface and heap.Interface, called by sort and container/heap",
	"Push":      "heap.Interface, called by container/heap",
	"Pop":       "heap.Interface, called by container/heap",
}

// unusedExemptMethods are test scaffolding that lives in non-test
// files because tests in other packages use it, keyed "dir Type" for
// every method of a type or "dir Type.Method" for one.
var unusedExemptMethods = map[string]string{
	"internal/clock Fake":      "a fake clock; transport, netchaos and node tests drive it, the ablations only construct it",
	"internal/vfs Faulty":      "a fault-injecting filesystem; wal and node tests script its faults, radloc ablate storage only some",
	"internal/geometry Vec.Eq": "the tolerance equality tests in nine packages compare positions with",
}

// TestNoUnusedExports fails when an exported func or method declared
// in a non-test file under internal/ is used by no non-test Go file of
// the repository (bench/, cmd/, examples/ and the root package
// included) outside its own declaration. Such a func is either dead or
// kept alive by tests alone; delete it, or rewrite the tests against
// the accessors that remain.
func TestNoUnusedExports(t *testing.T) {
	funcs, unused := unusedExports(loadRepo(t))
	if funcs == 0 {
		t.Fatal("found no exported funcs under internal/; is the repository root right?")
	}
	for _, u := range unused {
		t.Errorf("%s has no use outside tests", u)
	}
}

// unusedExports returns how many exported funcs and methods the
// non-test files under internal/ declare (exemptions aside) and,
// sorted, those no non-test file uses, as "file: name". Uses are
// resolved by type, so a field or a method of another type with the
// same name is no use. A method counts as used when an interface
// method it implements is: a call through cluster.Backend uses every
// Backend's ReadWAL.
func unusedExports(fset *token.FileSet, files map[string]*ast.File, modules map[string]string) (int, []string) {
	s := newRepoScan(fset, files, modules)
	for _, p := range s.pkgs {
		s.Import(p.path)
	}
	type decl struct {
		where    string
		from, to token.Pos // the whole declaration, doc comment excluded
	}
	decls := map[*types.Func]decl{}
	for rel, file := range files {
		dir := path.Dir(rel)
		if strings.HasSuffix(rel, "_test.go") || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		if _, ok := unusedExemptDirs[dir]; ok {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if recv := recvType(fd); recv != "" {
				_, iface := unusedExemptNames[fd.Name.Name]
				_, typ := unusedExemptMethods[dir+" "+recv]
				_, method := unusedExemptMethods[dir+" "+recv+"."+fd.Name.Name]
				if iface || typ || method {
					continue
				}
			}
			if fn, ok := s.info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = decl{where: rel + ": " + funcName(fd), from: fd.Pos(), to: fd.End()}
			}
		}
	}

	used := map[*types.Func]bool{}
	var ifaceUsed []*types.Func // interface methods called
	for id, obj := range s.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := decls[fn]; ok && d.from <= id.Pos() && id.Pos() < d.to {
			continue // recursion
		}
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceUsed = append(ifaceUsed, fn)
		}
	}
	// A selector the checker could not resolve on an operand of a
	// resolved repository type, because the method comes from the
	// stubbed standard library (f.File.Read through vfs.File's embedded
	// io.Reader), uses every method of its name. An operand that is
	// itself a standard-library value (resp.Body.Close()) uses none:
	// its type never resolved, and neither does a package name
	// (strings.Split).
	unresolved := map[string]bool{}
	for rel, file := range files {
		if strings.HasSuffix(rel, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || s.info.Uses[sel.Sel] != nil {
				return true
			}
			if tv := s.info.Types[sel.X]; tv.Type != nil && tv.Type != types.Typ[types.Invalid] {
				unresolved[sel.Sel.Name] = true
			}
			return true
		})
	}
	usedIndirectly := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		if unresolved[fn.Name()] {
			return true
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		for _, im := range ifaceUsed {
			iface, _ := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == fn.Name() && iface != nil && (types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
				return true
			}
		}
		return false
	}
	var unused []string
	for fn, d := range decls {
		if !used[fn] && !usedIndirectly(fn) {
			unused = append(unused, d.where)
		}
	}
	sort.Strings(unused)
	return len(decls), unused
}

// recvType returns the name of d's receiver type, "" for a func.
func recvType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// repoRoot walks up from the test's directory to the go.mod of the
// main module.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module radloc\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod for module radloc above the test directory")
		}
		dir = parent
	}
}

// TestUnusedExportsUses pins what counts as a use.
func TestUnusedExportsUses(t *testing.T) {
	const (
		decl  = `package a; type T struct{}; func (T) M() {}; func F() {}`
		cmd   = `package main; import "m/internal/a"; `
		m, fn = "internal/a/a.go: (T).M", "internal/a/a.go: F"
	)
	for _, tc := range []struct {
		name   string
		srcs   map[string]string
		unused []string
	}{
		{"never used", map[string]string{
			"cmd/x/main.go": cmd + `var _ a.T`,
		}, []string{m, fn}},
		{"called", map[string]string{
			"cmd/x/main.go": cmd + `func main() { a.T{}.M(); a.F() }`,
		}, nil},
		{"same-named field", map[string]string{
			"cmd/x/main.go": cmd + `type S struct{ M int }; func main() { var s S; s.M = 1; a.F() }`,
		}, []string{m}},
		{"through an interface", map[string]string{
			"cmd/x/main.go": cmd + `type I interface{ M() }; func main() { var i I = a.T{}; i.M(); a.F() }`,
		}, nil},
		{"selector on a standard-library type", map[string]string{
			"cmd/x/main.go": `package main; import ("m/internal/a"; "strings"); func main() { var b strings.Builder; b.M(); a.F() }`,
		}, []string{m}},
		{"through an embedded standard-library interface", map[string]string{
			"cmd/x/main.go": cmd + `import "io"; type R interface{ io.Reader }; func main() { var r R; r.M(); a.F() }`,
		}, nil},
		{"standard-library func of the same name", map[string]string{
			"cmd/x/main.go": `package main; import ("m/internal/a"; "strings"); func main() { strings.M(); a.F() }`,
		}, []string{m}},
		{"recursion", map[string]string{
			"internal/a/a.go": `package a; type T struct{}; func (T) M() {}; func F() { F() }`,
			"cmd/x/main.go":   cmd + `func main() { a.T{}.M() }`,
		}, []string{fn}},
		{"test file", map[string]string{
			"internal/a/a_test.go": `package a; func init() { F(); T{}.M() }`,
		}, []string{m, fn}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srcs := map[string]string{"internal/a/a.go": decl}
			for rel, src := range tc.srcs {
				srcs[rel] = src
			}
			fset := token.NewFileSet()
			files := map[string]*ast.File{}
			for rel, src := range srcs {
				f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files[rel] = f
			}
			_, unused := unusedExports(fset, files, map[string]string{".": "m"})
			if strings.Join(unused, " | ") != strings.Join(tc.unused, " | ") {
				t.Errorf("unused = %q, want %q", unused, tc.unused)
			}
		})
	}
}
