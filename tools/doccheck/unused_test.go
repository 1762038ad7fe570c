package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
	"internal/vfs Faulty":      "a fault-injecting filesystem; wal, node and scrub tests script its faults, radloc ablate storage only some",
	"internal/geometry Vec.Eq": "the tolerance equality tests in nine packages compare positions with",
}

// ident is one identifier occurrence that may name a func: not a
// func's own name, a struct field's declaration or a composite
// literal's key, which name fields (a func cannot be a map key).
type ident struct {
	file string
	pos  token.Pos
}

// exportedFunc is one exported func or method declared under internal/.
type exportedFunc struct {
	name, where string
	file        string
	from, to    token.Pos // the whole declaration, doc comment excluded
}

// TestNoUnusedExports fails when an exported func or method declared
// in a non-test file under internal/ is named nowhere in the non-test
// Go files of the repository (bench/, cmd/, examples/ and the root
// package included) outside its own declaration. Such a name is
// either dead or kept alive by tests alone; delete it, or rewrite the
// tests against the accessors that remain.
func TestNoUnusedExports(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	uses := map[string][]ident{}
	var funcs []exportedFunc
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := filepath.ToSlash(filepath.Dir(rel))
		notUse := map[*ast.Ident]bool{}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			notUse[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(rel, "internal/") {
				continue
			}
			if _, ok := unusedExemptDirs[dir]; ok {
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
			funcs = append(funcs, exportedFunc{
				name: fd.Name.Name, where: rel + ": " + funcName(fd),
				file: path, from: fd.Pos(), to: fd.End(),
			})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, f := range n.Fields.List {
					for _, id := range f.Names {
						notUse[id] = true
					}
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							notUse[id] = true
						}
					}
				}
			case *ast.Ident:
				if !notUse[n] {
					uses[n.Name] = append(uses[n.Name], ident{path, n.Pos()})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Fatal("found no exported funcs under internal/; is the repository root right?")
	}
	var unused []string
	for _, f := range funcs {
		used := false
		for _, u := range uses[f.name] {
			if u.file != f.file || u.pos < f.from || u.pos >= f.to {
				used = true
				break
			}
		}
		if !used {
			unused = append(unused, f.where)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no use outside tests", u)
	}
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
