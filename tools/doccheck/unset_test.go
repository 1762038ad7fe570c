package main

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnsetOptions fails when an exported field of an exported
// …Options or …Config struct declared in a non-test file under
// internal/ is set by no Go file of the repository: tests, examples
// and bench/ included. A field with one value ever in use is a
// constant; delete it and name the value in the code that reads it.
// Setters are attributed to the struct they name, so a same-named
// field of another struct cannot hide an unset one.
func TestNoUnsetOptions(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	modules := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && p != root) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		switch {
		case d.Name() == "go.mod":
			mod, err := modulePath(p)
			if err != nil {
				return err
			}
			modules[path.Dir(rel)] = mod
		case strings.HasSuffix(rel, ".go"):
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[rel] = f
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared, unset := unsetOptions(fset, files, modules)
	if declared == 0 {
		t.Fatal("found no Options/Config fields under internal/; is the repository root right?")
	}
	t.Logf("%d settable fields on exported Options/Config structs under internal/", declared)
	for _, u := range unset {
		t.Errorf("%s is set by no code; make it a constant", u)
	}
}

// TestUnsetOptionsSetters pins what counts as setting a field.
func TestUnsetOptionsSetters(t *testing.T) {
	const (
		decl = `package a; type Options struct{ F int }`
		cmd  = `package main; import "m/internal/a"; `
	)
	for _, tc := range []struct {
		name  string
		srcs  map[string]string
		unset []string
	}{
		{"never set", map[string]string{
			"cmd/x/main.go": cmd + `var _ a.Options`,
		}, []string{"internal/a.Options.F"}},
		{"composite-literal key", map[string]string{
			"cmd/x/main.go": cmd + `var _ = a.Options{F: 1}`,
		}, nil},
		{"unkeyed composite literal", map[string]string{
			"cmd/x/main.go": cmd + `var _ = a.Options{1}`,
		}, nil},
		{"elided composite-literal type", map[string]string{
			"cmd/x/main.go": cmd + `var _ = []*a.Options{{F: 1}}`,
		}, nil},
		{"assignment", map[string]string{
			"cmd/x/main.go": cmd + `func main() { var o a.Options; o.F = 1; _ = o }`,
		}, nil},
		{"increment", map[string]string{
			"cmd/x/main.go": cmd + `func main() { var o a.Options; o.F++ }`,
		}, nil},
		{"decrement", map[string]string{
			"cmd/x/main.go": cmd + `func main() { var o a.Options; o.F-- }`,
		}, nil},
		{"address-of", map[string]string{
			"cmd/x/main.go": `package main; import ("flag"; "m/internal/a"); func main() { var o a.Options; flag.IntVar(&o.F, "f", 0, "") }`,
		}, nil},
		{"selector chain sets every field on it", map[string]string{
			"internal/a/a.go": `package a; type Config struct{ Health HealthConfig }; type HealthConfig struct{ Disabled bool }`,
			"cmd/x/main.go":   cmd + `func main() { var c a.Config; c.Health.Disabled = true }`,
		}, nil},
		{"internal test file", map[string]string{
			"internal/a/a_test.go": `package a; var _ = Options{F: 1}`,
		}, nil},
		{"external test file", map[string]string{
			"internal/a/a_test.go": `package a_test; import "m/internal/a"; var _ = a.Options{F: 1}`,
		}, nil},
		{"default fill in the declaring package", map[string]string{
			"internal/a/fill.go": `package a; func (o *Options) fill() { if o.F == 0 { o.F = 3 } }`,
		}, []string{"internal/a.Options.F"}},
		{"same-named field of another struct", map[string]string{
			"internal/b/b.go": `package b; type Options struct{ F int }`,
			"cmd/x/main.go":   `package main; import "m/internal/b"; func main() { o := b.Options{F: 1}; o.F = 2 }`,
		}, []string{"internal/a.Options.F"}},
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
			_, unset := unsetOptions(fset, files, map[string]string{".": "m"})
			if strings.Join(unset, " ") != strings.Join(tc.unset, " ") {
				t.Errorf("unset = %q, want %q", unset, tc.unset)
			}
		})
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", sc.Err()
}

// srcPackage is one directory's Go files, split as the go tool builds
// them.
type srcPackage struct {
	dir, path string
	files     []*ast.File // non-test files: what importers see
	tests     []*ast.File // _test.go files of the same package
	xtests    []*ast.File // _test.go files of the external test package
}

// setterScan type-checks repository packages from source. Imports from
// outside the repository resolve to empty packages and type errors are
// ignored: a setter names a repository struct, so its receiver's type
// never depends on the standard library, and skipping the standard
// library keeps the pass to a fraction of a second.
type setterScan struct {
	fset    *token.FileSet
	byPath  map[string]*srcPackage
	checked map[string]*types.Package // import path -> non-test package
	set     map[token.Pos]bool        // field declarations some code sets
}

// unsetOptions returns how many exported fields the exported …Options
// and …Config structs declared in non-test files under internal/ have,
// and, sorted, those no file in files sets, as "dir.Struct.Field".
// files is keyed by slash path relative to the repository root;
// modules maps each module's root directory there ("." for the
// repository root) to its module path.
func unsetOptions(fset *token.FileSet, files map[string]*ast.File, modules map[string]string) (int, []string) {
	s := &setterScan{
		fset:    fset,
		byPath:  map[string]*srcPackage{},
		checked: map[string]*types.Package{},
		set:     map[token.Pos]bool{},
	}
	byDir := map[string]*srcPackage{}
	for rel, f := range files {
		dir := path.Dir(rel)
		p := byDir[dir]
		if p == nil {
			p = &srcPackage{dir: dir, path: importPath(dir, modules)}
			byDir[dir] = p
			s.byPath[p.path] = p
		}
		switch {
		case !strings.HasSuffix(rel, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)

	fields := map[token.Pos]string{}
	for _, dir := range dirs {
		p := byDir[dir]
		if !strings.HasPrefix(p.dir, "internal/") || len(p.files) == 0 {
			continue
		}
		pkg, _ := s.Import(p.path)
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f.Pos()] = p.dir + "." + name + "." + f.Name()
				}
			}
		}
	}

	for _, dir := range dirs {
		p := byDir[dir]
		own := append(append([]*ast.File(nil), p.files...), p.tests...)
		info := newInfo()
		pkg := s.check(p.path, own, info, nil)
		s.scan(p.path, own, info)
		if len(p.xtests) > 0 {
			info := newInfo()
			s.check(p.path+"_test", p.xtests, info, map[string]*types.Package{p.path: pkg})
			s.scan(p.path+"_test", p.xtests, info)
		}
	}

	var unset []string
	for pos, name := range fields {
		if !s.set[pos] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	return len(fields), unset
}

// importPath is dir's import path under the module whose root is the
// longest prefix of dir.
func importPath(dir string, modules map[string]string) string {
	root := "."
	for r := range modules {
		if r != "." && (dir == r || strings.HasPrefix(dir, r+"/")) && (root == "." || len(r) > len(root)) {
			root = r
		}
	}
	if dir == root {
		return modules[root]
	}
	return modules[root] + "/" + strings.TrimPrefix(dir, root+"/")
}

func newInfo() *types.Info {
	return &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
}

// Import returns the non-test package at path, checked once.
func (s *setterScan) Import(importPath string) (*types.Package, error) {
	if pkg, ok := s.checked[importPath]; ok {
		return pkg, nil
	}
	var pkg *types.Package
	if p, ok := s.byPath[importPath]; ok && len(p.files) > 0 {
		pkg = s.check(importPath, p.files, nil, nil)
	} else {
		pkg = types.NewPackage(importPath, path.Base(importPath))
		pkg.MarkComplete()
	}
	s.checked[importPath] = pkg
	return pkg, nil
}

// check type-checks files as package path, ignoring type errors;
// override substitutes packages for some imports.
func (s *setterScan) check(path string, files []*ast.File, info *types.Info, override map[string]*types.Package) *types.Package {
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if pkg, ok := override[p]; ok {
				return pkg, nil
			}
			return s.Import(p)
		}),
		Error: func(error) {},
	}
	pkg, _ := conf.Check(path, s.fset, files, info)
	return pkg
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scan records in s.set every field that files, checked as package
// path with info, set: by a composite-literal key or position, or as
// an assigned, incremented or address-taken operand, where each field
// selected on the way to the operand counts too. A default fill,
// `if x.F == 0 { x.F = v }` in F's own package, sets nothing.
func (s *setterScan) scan(path string, files []*ast.File, info *types.Info) {
	field := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	// operand walks an operand down to its base, returning the fields
	// it selects, outermost first.
	operand := func(e ast.Expr) []*types.Var {
		var vs []*types.Var
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v := field(x.Sel); v != nil {
					vs = append(vs, v)
				}
				e = x.X
			default:
				return vs
			}
		}
	}
	setAll := func(e ast.Expr) {
		for _, v := range operand(e) {
			s.set[v.Pos()] = true
		}
	}
	fills := map[ast.Stmt]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				read := map[*types.Var]bool{}
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if sel, ok := c.(*ast.SelectorExpr); ok {
						if v := field(sel.Sel); v != nil {
							read[v] = true
						}
					}
					return true
				})
				for _, st := range n.Body.List {
					as, ok := st.(*ast.AssignStmt)
					if !ok || len(as.Lhs) != 1 {
						continue
					}
					if vs := operand(as.Lhs[0]); len(vs) > 0 && read[vs[0]] && vs[0].Pkg() != nil && vs[0].Pkg().Path() == path {
						fills[as] = true
					}
				}
			case *ast.AssignStmt:
				if !fills[n] {
					for _, lhs := range n.Lhs {
						setAll(lhs)
					}
				}
			case *ast.IncDecStmt:
				setAll(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setAll(n.X)
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if t == nil {
					break
				}
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v := field(id); v != nil {
								s.set[v.Pos()] = true
							}
						}
					} else if i < st.NumFields() {
						s.set[st.Field(i).Origin().Pos()] = true
					}
				}
			}
			return true
		})
	}
}
