package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// optionsLedger pins the settable (exported) fields of the config types
// along the canceller, transport and serving path, keyed by
// "package-dir.Type". A value with one value in use is a constant, not an
// option, so adding a knob takes a deliberate edit here.
var optionsLedger = map[string]int{
	"graph.Config":          25,
	"graph.CancellerParams": 6,
	"graph.FDAFParams":      2,
	"sim.Params":            24,
	"sim.LossTransport":     8,
	"core.Config":           15,
	"supervisor.Config":     13,
	"fleet.Profile":         16,
	"fleet.LifecycleConfig": 6,
	"fleet.LoadConfig":      9,
}

// TestOptionsLedger fails when a ledger type's exported field count
// differs from its pin.
func TestOptionsLedger(t *testing.T) {
	counts := map[string]int{}
	parsed := map[string]bool{}
	for key := range optionsLedger {
		dir := key[:strings.Index(key, ".")]
		if parsed[dir] {
			continue
		}
		parsed[dir] = true
		for name, n := range exportedFieldCounts(t, filepath.Join("..", dir)) {
			counts[dir+"."+name] = n
		}
	}
	for key, want := range optionsLedger {
		got, ok := counts[key]
		if !ok {
			t.Errorf("%s: no such struct type", key)
			continue
		}
		if got != want {
			t.Errorf("%s has %d settable fields, the ledger pins %d", key, got, want)
		}
	}
}

// exportedFieldCounts parses the non-test files of dir and returns the
// exported field count of every top-level struct type declared there.
func exportedFieldCounts(t *testing.T, dir string) map[string]int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if st, ok := ts.Type.(*ast.StructType); ok {
					counts[ts.Name.Name] = exportedFields(st)
				}
			}
		}
	}
	return counts
}

// exportedFields counts a struct's exported fields; an embedded field
// counts as one.
func exportedFields(st *ast.StructType) int {
	c := 0
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			c++
			continue
		}
		for _, id := range field.Names {
			if id.IsExported() {
				c++
			}
		}
	}
	return c
}
