package core

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

// TestEngineKnobsHaveCallers: every exported field of Config and
// RecoverOptions is set by some program outside this package -- a key in a
// core.Config{...} or core.RecoverOptions{...} literal, or an assignment to a
// field of that name -- in a non-test file anywhere in the repository,
// benchmark/ included. A knob only tests turn is surface to delete.
func TestEngineKnobsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	goFiles := func(root string, skip func(dir string) bool, fn func(ast.Node) bool) {
		t.Helper()
		if err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != root && skip(path):
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err == nil {
				ast.Inspect(f, fn)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	knob := func(name string) bool { return name == "Config" || name == "RecoverOptions" }
	// GCEveryNCommits is the one exemption: tests set it to stop automatic GC
	// (or to force it), so that version chains stay as the test built them.
	set := map[string]bool{"GCEveryNCommits": true}
	goFiles(".", func(string) bool { return true }, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && knob(ts.Name.Name) {
			for _, fld := range ts.Type.(*ast.StructType).Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() && !set[id.Name] {
						set[id.Name] = false
					}
				}
			}
		}
		return true
	})
	self := filepath.Join("..", "..", "internal", "core")
	goFiles(filepath.Join("..", ".."), func(dir string) bool {
		return dir == self || strings.HasPrefix(filepath.Base(dir), ".")
	}, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if sel, ok := n.Type.(*ast.SelectorExpr); ok && knob(sel.Sel.Name) {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							set[kv.Key.(*ast.Ident).Name] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					set[sel.Sel.Name] = true
				}
			}
		}
		return true
	})
	var unset []string
	for name, ok := range set {
		if !ok {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Fatalf("core.Config/RecoverOptions fields no program sets: %s", strings.Join(unset, ", "))
	}
}
