package pastix

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadCodeAllow holds the internal names that only tests reach but that the
// tests of several packages share as fixtures. The key is the name as the
// gate reports it (package directory under internal/, a dot, the name; a
// method as Type.Method); the value says why it stays.
var deadCodeAllow = map[string]string{
	"gen.Laplacian2D":           "small SPD fixture of the root, solver, service, store, sched, order and etree tests",
	"gen.RandomSPD":             "random SPD fixture of the root, solver and etree tests",
	"gen.GradedPivot":           "near-singular fixture of the root, solver, service and etree pivoting tests",
	"graph.New":                 "adjacency-list graph fixture of the graph and order tests",
	"etree.Build":               "elimination-tree reference of the etree, order, part, sched and symbolic tests",
	"etree.ColCounts":           "column-count reference of the etree, order, part, sched and symbolic tests",
	"sched.NewDAG":              "hand-built task graphs of the sched and dynsched executor tests",
	"cost.Machine.WithSMPNodes": "SMP machine profile of the cost tests and the bench SMP ablation",
}

// TestDeadCode fails on any internal/ name that only tests reach: an exported
// package-level name that no non-test code references outside its own
// declaration, an exported method whose name no non-test code selects, and
// an unexported function, method, type or var that its own package's
// non-test code never references. Non-test code anywhere in the module
// counts as a caller, and so does perfbench/, a module of its own that
// imports internal/ packages.
func TestDeadCode(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	fset := token.NewFileSet()
	files, err := loadModuleFiles(fset, ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range deadCode(fset, module, files, deadCodeAllow) {
		t.Error(p)
	}
}

// scannedFile reports whether the gate reads the file at rel: a non-test Go
// file outside testdata/ and outside directories whose names start with "."
// or "_" (the go tool ignores those too; the benchmark builds its worktrees
// under one).
func scannedFile(rel string) bool {
	if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
		return false
	}
	dirs := strings.Split(path.Dir(rel), "/")
	for _, d := range dirs {
		if d == "testdata" || strings.HasPrefix(d, ".") && d != "." || strings.HasPrefix(d, "_") {
			return false
		}
	}
	return true
}

// loadModuleFiles parses every scanned file under root, keyed by its
// slash-separated path relative to root.
func loadModuleFiles(fset *token.FileSet, root string) (map[string]*ast.File, error) {
	files := map[string]*ast.File{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() && !scannedFile(rel+"/x.go") {
			return fs.SkipDir
		}
		if d.IsDir() || !scannedFile(rel) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[rel] = f
		return nil
	})
	return files, err
}

// deadDecl is one checked declaration: its report name, the package
// directory and name it is matched by, and the span of its own declaration,
// inside which a reference does not count.
type deadDecl struct {
	report     string
	dir, name  string
	method     bool
	recvType   string
	pos        token.Pos
	start, end token.Pos
}

// deadCode returns one line per problem: each internal/ name that only tests
// reach and that allow does not hold, each allow entry without a reason, and
// each allow entry the gate would not flag.
func deadCode(fset *token.FileSet, module string, files map[string]*ast.File, allow map[string]string) []string {
	type ref struct{ dir, name string }
	refs := map[ref][]token.Pos{}        // references to package-level names
	selected := map[string]bool{}        // names selected anywhere (x.Name)
	pkgSelected := map[ref][]token.Pos{} // names selected inside a package
	pkgName := map[string]string{}       // package directory → package name
	for rel, f := range files {
		pkgName[path.Dir(rel)] = f.Name.Name
	}
	// aliasOf maps each alias declaration (type A = B) to the type it names.
	aliasOf := map[ref]ref{}
	var decls []deadDecl
	for rel, f := range files {
		dir := path.Dir(rel)
		imports := map[string]string{}
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			if p != module && !strings.HasPrefix(p, module+"/") {
				continue
			}
			d := strings.TrimPrefix(strings.TrimPrefix(p, module), "/")
			if d == "" {
				d = "."
			}
			name, ok := pkgName[d]
			if !ok {
				name = path.Base(d)
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = d
		}
		// Receiver types: a method's receiver does not keep its type alive.
		recv := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
		// A selected name (x.Name) and a declared field or parameter name are
		// not references to a package-level name.
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				pkgSelected[ref{dir, n.Sel.Name}] = append(pkgSelected[ref{dir, n.Sel.Name}], n.Sel.Pos())
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					r := ref{imports[x.Name], n.Sel.Name}
					refs[r] = append(refs[r], n.Sel.Pos())
				} else {
					ast.Inspect(n.X, visit)
				}
				return false
			case *ast.Field:
				ast.Inspect(n.Type, visit)
				return false
			case *ast.Ident:
				if !recv[n] {
					refs[ref{dir, n.Name}] = append(refs[ref{dir, n.Name}], n.Pos())
				}
			case *ast.TypeSpec:
				if !n.Assign.IsValid() {
					break
				}
				switch t := typeBase(n.Type).(type) {
				case *ast.Ident:
					aliasOf[ref{dir, n.Name.Name}] = ref{dir, t.Name}
				case *ast.SelectorExpr:
					if x, ok := t.X.(*ast.Ident); ok && imports[x.Name] != "" {
						aliasOf[ref{dir, n.Name.Name}] = ref{imports[x.Name], t.Sel.Name}
					}
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		if dir != "internal" && !strings.HasPrefix(dir, "internal/") {
			continue
		}
		short := strings.TrimPrefix(dir, "internal/")
		add := func(name string, method bool, recvType string, at token.Pos, start, end token.Pos) {
			if name == "_" || name == "init" {
				return
			}
			report := short + "." + name
			if method {
				report = short + "." + recvType + "." + name
			}
			decls = append(decls, deadDecl{report, dir, name, method, recvType, at, start, end})
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, false, "", d.Name.Pos(), d.Pos(), d.End())
					continue
				}
				add(d.Name.Name, true, recvTypeName(d.Recv.List[0].Type), d.Name.Pos(), d.Pos(), d.End())
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, false, "", s.Name.Pos(), s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if d.Tok == token.CONST && !id.IsExported() {
								continue
							}
							add(id.Name, false, "", id.Pos(), s.Pos(), s.End())
						}
					}
				}
			}
		}
	}

	// Methods of the types the root package re-exports by alias, directly or
	// through an alias chain, are public API.
	aliased := map[ref]bool{}
	for a, t := range aliasOf {
		if a.dir != "." {
			continue
		}
		for ok := true; ok && !aliased[t]; t, ok = aliasOf[t] {
			aliased[t] = true
		}
	}

	outside := func(ps []token.Pos, d deadDecl) bool {
		for _, p := range ps {
			if p < d.start || p >= d.end {
				return true
			}
		}
		return false
	}
	flagged := map[string]string{}
	for _, d := range decls {
		exported := ast.IsExported(d.name)
		var live bool
		switch {
		case d.method && exported:
			live = selected[d.name] || deadExemptMethods[d.name] || aliased[ref{d.dir, d.recvType}]
		case d.method:
			live = outside(pkgSelected[ref{d.dir, d.name}], d)
		default:
			live = outside(refs[ref{d.dir, d.name}], d)
		}
		if !live {
			flagged[d.report] = fset.Position(d.pos).String()
		}
	}

	var problems []string
	for name, at := range flagged {
		if _, ok := allow[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is reached only from tests", at, name))
		}
	}
	for name, reason := range allow {
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("allowlist entry %s has no reason", name))
		}
		if _, ok := flagged[name]; !ok {
			problems = append(problems, fmt.Sprintf("allowlist entry %s is stale: non-test code reaches it", name))
		}
	}
	sort.Strings(problems)
	return problems
}

// deadExemptMethods are method names that satisfy standard-library
// interfaces; the calls that reach them are inside the standard library.
var deadExemptMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true,
	"GoString": true, "Format": true, "ServeHTTP": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "Read": true, "Write": true,
	"Close": true, "Set": true, "Timeout": true, "Temporary": true,
}

// typeBase strips pointers, parentheses and type arguments off a type
// expression: T for T, *T, T[P].
func typeBase(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// recvTypeName is the type name of a method receiver.
func recvTypeName(e ast.Expr) string {
	if id, ok := typeBase(e).(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// TestDeadCodeChecker runs the gate on small in-memory modules.
func TestDeadCodeChecker(t *testing.T) {
	const (
		aF     = "package a\n\nfunc F() {}\n"
		useAF  = "package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.F() }\n"
		testAF = "package a\n\nfunc TestF() { F() }\n"
	)
	flagF := []string{"internal/a/a.go:3:6: a.F is reached only from tests"}
	for _, tc := range []struct {
		name  string
		files map[string]string
		allow map[string]string
		want  []string
	}{
		{"test caller only", map[string]string{"internal/a/a.go": aF, "internal/a/a_test.go": testAF}, nil, flagF},
		{"cmd caller", map[string]string{"internal/a/a.go": aF, "cmd/x/main.go": useAF}, nil, nil},
		{"perfbench caller", map[string]string{"internal/a/a.go": aF, "perfbench/main.go": useAF}, nil, nil},
		{"qualified by package", map[string]string{
			"internal/a/a.go": aF, "internal/b/b.go": "package b\n\nfunc F() {}\n", "cmd/x/main.go": useAF,
		}, nil, []string{"internal/b/b.go:3:6: b.F is reached only from tests"}},
		{"standard interface method", map[string]string{
			"internal/a/a.go": "package a\n\ntype E struct{}\n\nfunc (E) Error() string { return \"\" }\n",
			"cmd/x/main.go":   "package main\n\nimport \"m/internal/a\"\n\nvar _ error = a.E{}\n",
		}, nil, nil},
		{"unexported helper with a test caller", map[string]string{
			"internal/a/a.go": aF + "\nfunc helper() {}\n", "internal/a/a_test.go": "package a\n\nfunc TestH() { helper() }\n",
			"cmd/x/main.go": useAF,
		}, nil, []string{"internal/a/a.go:5:6: a.helper is reached only from tests"}},
		{"allowlist entry without reason", map[string]string{"internal/a/a.go": aF}, map[string]string{"a.F": " "},
			[]string{"allowlist entry a.F has no reason"}},
		{"stale allowlist entry", map[string]string{"internal/a/a.go": aF, "cmd/x/main.go": useAF},
			map[string]string{"a.F": "fixture"}, []string{"allowlist entry a.F is stale: non-test code reaches it"}},
		{"ignored directories", map[string]string{
			"internal/a/a.go": aF, ".bench_build/w/cmd/x/main.go": useAF, "internal/a/testdata/x.go": useAF,
		}, nil, flagF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			files := map[string]*ast.File{}
			for rel, src := range tc.files {
				if !scannedFile(rel) {
					continue
				}
				f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files[rel] = f
			}
			got := deadCode(fset, "m", files, tc.allow)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("got %q, want %q", got, tc.want)
			}
		})
	}
}
