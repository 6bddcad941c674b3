package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// optionsLedger pins the settable (exported) fields of the config types
// along the canceller, transport and serving path, keyed by
// "package-dir.Type". A value with one value in use is a constant, not an
// option, so adding a knob takes a deliberate edit here.
var optionsLedger = map[string]int{
	"graph.Config":          26,
	"graph.CancellerParams": 6,
	"graph.FDAFParams":      2,
	"sim.Params":            26,
	"sim.Scene":             6,
	"sim.LossTransport":     8,
	"core.Config":           14,
	"supervisor.Config":     6,
	"fleet.Profile":         16,
	"fleet.LifecycleConfig": 2,
	"fleet.LoadConfig":      9,
	"fleet.ChaosConfig":     4,
	"mesh.Config":           12,
	"mesh.InjectorConfig":   5,
	"stream.DriftConfig":    2,
	"stream.SkewParams":     4,
	"rf.ChannelParams":      6,
}

// unwrittenAllowed names the ledger fields that no non-test file writes
// but that stay settable, each with its reason.
var unwrittenAllowed = map[string]string{
	"sim.Params.EarMicNoiseRMS": "the cancellation meter may need ear-mic noise as its floor (ROADMAP item 8)",
	"stream.SkewParams.Steps":   "the drift tests' only way to inject an oscillator step",
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

// TestOptionsLedgerFieldsWritten fails when an exported field of a ledger
// type is written by no non-test file, so its only value in use is its
// default: such a field belongs in a constant. A keyed composite literal
// or an assignment counts as a write, matched by field name alone; the
// owning package filling in a value it was handed (a receiver's or a
// parameter's field, as a defaulting method does) does not count.
func TestOptionsLedgerFieldsWritten(t *testing.T) {
	root := filepath.Join("..", "..")
	written := fieldWrites(t, root)
	var unwritten []string
	for key := range optionsLedger {
		dir, typ, _ := strings.Cut(key, ".")
		owner := filepath.Join(root, "internal", dir)
		for _, name := range exportedFieldNames(t, filepath.Join("..", dir), typ) {
			if !writtenOutside(written[name], owner) {
				unwritten = append(unwritten, key+"."+name)
			}
		}
	}
	sort.Strings(unwritten)
	for _, field := range unwritten {
		if _, ok := unwrittenAllowed[field]; !ok {
			t.Errorf("%s is written by no non-test file: make it a constant, or allowlist it with a reason", field)
		}
	}
	for field := range unwrittenAllowed {
		if i := sort.SearchStrings(unwritten, field); i == len(unwritten) || unwritten[i] != field {
			t.Errorf("%s is allowlisted but now written or gone: drop the entry", field)
		}
	}
}

// fieldWrite is one write of a field name: the directory of the file it
// is in, and whether it sets a field of the enclosing function's receiver
// or one of its parameters.
type fieldWrite struct {
	dir       string
	ofHandled bool
}

// writtenOutside reports whether any write counts as a use: one outside
// the owning package, or one inside it that is not a handed-in value's
// defaulting.
func writtenOutside(writes []fieldWrite, owner string) bool {
	for _, w := range writes {
		if w.dir != owner || !w.ofHandled {
			return true
		}
	}
	return false
}

// fieldWrites parses every non-test Go file under root and indexes its
// keyed-literal keys and assigned selectors by field name.
func fieldWrites(t *testing.T, root string) map[string][]fieldWrite {
	t.Helper()
	writes := map[string][]fieldWrite{}
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, decl := range f.Decls {
			handled := map[string]bool{}
			if fd, ok := decl.(*ast.FuncDecl); ok {
				for _, list := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
					if list == nil {
						continue
					}
					for _, field := range list.List {
						for _, id := range field.Names {
							handled[id.Name] = true
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id.Name] = append(writes[id.Name], fieldWrite{dir: dir})
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							base, ok := sel.X.(*ast.Ident)
							w := fieldWrite{dir: dir, ofHandled: ok && handled[base.Name]}
							writes[sel.Sel.Name] = append(writes[sel.Sel.Name], w)
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return writes
}

// exportedFieldNames returns the exported field names of struct type typ
// declared in the non-test files of dir.
func exportedFieldNames(t *testing.T, dir, typ string) []string {
	t.Helper()
	var names []string
	eachStruct(t, dir, func(name string, st *ast.StructType) {
		if name != typ {
			return
		}
		for _, field := range st.Fields.List {
			for _, id := range field.Names {
				if id.IsExported() {
					names = append(names, id.Name)
				}
			}
		}
	})
	return names
}

// exportedFieldCounts parses the non-test files of dir and returns the
// exported field count of every top-level struct type declared there.
func exportedFieldCounts(t *testing.T, dir string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	eachStruct(t, dir, func(name string, st *ast.StructType) {
		counts[name] = exportedFields(st)
	})
	return counts
}

// eachStruct calls fn for every top-level struct type declared in the
// non-test files of dir.
func eachStruct(t *testing.T, dir string, fn func(name string, st *ast.StructType)) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
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
					fn(ts.Name.Name, st)
				}
			}
		}
	}
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
