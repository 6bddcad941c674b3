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
