package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// cancellerConstructors are the calls that build a canceller (or the
// ladder around one). Outside internal/graph, building one means stepping
// it by hand — a second wiring of the cancellation loop.
var cancellerConstructors = map[string]bool{
	"mute/internal/core.New":         true,
	"mute/internal/supervisor.New":   true,
	"mute/internal/headphone.NewANC": true,
}

// handWired lists the loops in internal/sim, internal/experiments, cmd/
// and examples/ that still build and step their own canceller, keyed by
// "dir/file.go:Func callee", each with the graph feature it is waiting
// for. Every other run goes through graph.Build.
var handWired = map[string]string{
	"experiments/fig17.go:alternatingSourceGain mute/internal/core.New": "controlled isolation of profile switching on a leak-free LANC with its own profiler tuning; " +
		"on the graph, core's default profiler tuning and graph.Leak would move its published bound from 4.1 to about 2.1 dB",
}

// TestCancellationLoopsGoThroughGraph fails when a non-test file in
// internal/sim, internal/experiments or a cmd/ or examples/ binary
// constructs a canceller outside the handWired list, and when a listed
// site no longer does (so the list only ever shrinks with the code).
func TestCancellationLoopsGoThroughGraph(t *testing.T) {
	found := map[string]bool{}
	dirs := []string{"../sim", "."}
	for _, pattern := range []string{"../../cmd/*", "../../examples/*"} {
		bins, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(bins) == 0 {
			t.Fatalf("no directory matches %s", pattern)
		}
		dirs = append(dirs, bins...)
	}
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(abs)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, site := range constructorCalls(t, path) {
				key := pkg + "/" + filepath.Base(path) + ":" + site
				found[key] = true
				if _, ok := handWired[key]; !ok {
					t.Errorf("%s constructs a canceller by hand; wire it through graph.Build", key)
				}
			}
		}
	}
	var stale []string
	for key := range handWired {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("handWired lists %s, which no longer constructs a canceller; delete the entry", key)
	}
}

// constructorCalls returns "Func callee" for every canceller-constructor
// call in the file, Func being the enclosing top-level function.
func constructorCalls(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	var sites []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if callee := imports[id.Name] + "." + sel.Sel.Name; cancellerConstructors[callee] {
				sites = append(sites, fn.Name.Name+" "+callee)
			}
			return true
		})
	}
	return sites
}

// windowCallers are the functions outside internal/core that may call
// LimitNonCausal, keyed "dir.Recv.Func": graph's window owner, the one
// place the live non-causal window is granted, and the canceller kind
// that fans the grant out over its banks.
var windowCallers = map[string]bool{
	"internal/graph.window.set":               true,
	"internal/graph.multiKind.LimitNonCausal": true,
}

// TestWindowHasOneOwner fails when a non-test file outside internal/core
// calls .LimitNonCausal( from anywhere but windowCallers (a second place
// sizing the live window, which would not compose with the owner's
// grant), when a windowCallers entry no longer calls it, and when
// internal/supervisor's non-test files import internal/core (the ladder
// emits a rung and steps its leg through an interface).
func TestWindowHasOneOwner(t *testing.T) {
	found := map[string]bool{}
	supervisorFiles := 0
	walkNonTestFiles(t, func(rel, file string, f *ast.File) {
		if rel == "internal/supervisor" {
			supervisorFiles++
			for _, imp := range f.Imports {
				if imp.Path.Value == `"mute/internal/core"` {
					t.Errorf("%s/%s imports mute/internal/core; the ladder steps its leg through supervisor.Leg", rel, file)
				}
			}
		}
		if rel == "internal/core" {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := rel + "." + fn.Name.Name
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					name = rel + "." + id.Name + "." + fn.Name.Name
				}
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "LimitNonCausal" {
					found[name] = true
					if !windowCallers[name] {
						t.Errorf("%s calls LimitNonCausal; set the window through graph's owner (Pipeline.SetPressure or the supervisor's rung)", name)
					}
				}
				return true
			})
		}
	})
	if supervisorFiles == 0 {
		t.Error("found no internal/supervisor file; the import check is vacuous")
	}
	for name := range windowCallers {
		if !found[name] {
			t.Errorf("windowCallers lists %s, which no longer calls LimitNonCausal; delete the entry", name)
		}
	}
}

// TestOneRelaySelector fails when a second relay selector appears beside
// internal/mesh: a non-test file other than the ladder's
// (internal/supervisor/supervisor.go, one link) or the mesh's that builds
// a supervisor.LinkHealth, or an exported internal/supervisor function or
// method that takes per-relay concealment flags ([]bool) and returns a
// relay index (int).
func TestOneRelaySelector(t *testing.T) {
	linkHealthUsers := 0
	walkNonTestFiles(t, func(rel, file string, f *ast.File) {
		allowed := rel == "internal/mesh" || rel+"/"+file == "internal/supervisor/supervisor.go"
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if name != "NewLinkHealth" {
				return true
			}
			linkHealthUsers++
			if !allowed {
				t.Errorf("%s/%s builds a supervisor.LinkHealth; relay selection belongs to internal/mesh", rel, file)
			}
			return true
		})
		if rel != "internal/supervisor" {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			if hasType(fn.Type.Params, "[]bool") && hasType(fn.Type.Results, "int") {
				t.Errorf("%s/%s: %s takes per-relay flags and returns a relay index; relay selection belongs to internal/mesh",
					rel, file, fn.Name.Name)
			}
		}
	})
	if linkHealthUsers == 0 {
		t.Error("found no NewLinkHealth call; the check is vacuous")
	}
}

// hasType reports whether a field list holds a field of the given type,
// written as Go source ("int", "[]bool").
func hasType(fields *ast.FieldList, typ string) bool {
	for _, fl := range fields.List {
		switch ft := fl.Type.(type) {
		case *ast.Ident:
			if ft.Name == typ {
				return true
			}
		case *ast.ArrayType:
			if elt, ok := ft.Elt.(*ast.Ident); ok && ft.Len == nil && "[]"+elt.Name == typ {
				return true
			}
		}
	}
	return false
}

// walkNonTestFiles parses every non-test Go file of the module and hands
// each to visit with its directory relative to the module root (slash
// separated) and its file name.
func walkNonTestFiles(t *testing.T, visit func(rel, file string, f *ast.File)) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(rel), d.Name(), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
