package hiengine_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knobExemptions names the exported fields of *Config and *Options structs
// under internal/ that no program sets, each with the test seam that needs
// it. It only shrinks: a field leaves the map once a program sets it, or
// once its tests can do without it.
var knobExemptions = map[string]string{
	"core.Config.GCEveryNCommits":   "tests stop automatic GC, or force it, so version chains stay as the test built them",
	"srss.Config.Chaos":             "fault-injection tests in eight packages give a deployment its chaos engine",
	"srss.Config.MaxPLogSize":       "tests fill a PLog to its cap with a few records",
	"srss.Config.ChunkSize":         "tests put records across chunk boundaries with 64-byte chunks",
	"client.Options.RequestTimeout": "tests time out a request against a stalled server in milliseconds",
	"client.Options.RetryBase":      "tests retry without sleeping for the default backoff",
	"pia.Config.SlotBits":           "tests fill a partition with a few slots",
}

// TestKnobsHaveCallers: every exported field of every struct named *Config
// or *Options declared in a non-test file under internal/ is set by a
// program outside its own package -- a non-test file anywhere in the
// repository, benchmark/ included, and a program under examples/ too: an
// example shows a deployment choosing the knob. A field counts as set where
// it is tied to its own type: a key in a literal of that struct, or an
// assignment to or the address (a flag binding) of the field through a value
// of that type, so a same-named field of another struct does not count. A
// knob only tests turn doubles the configurations to cover and no deployment
// picks its value: make it a constant, or an unexported field the package's
// own tests set.
func TestKnobsHaveCallers(t *testing.T) {
	pkgs := typeCheckRepo(t)
	knobs := map[*types.Var]string{} // field -> "pkg.Type.Field"
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path(), "hiengine/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					knobs[f] = p.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	mark := func(from *types.Package, obj types.Object) {
		if f, ok := obj.(*types.Var); ok && knobs[f] != "" && f.Pkg() != from {
			set[f] = true
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						mark(p.Package, p.info.Uses[k])
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && p.info.Selections[sel] != nil {
							mark(p.Package, p.info.Selections[sel].Obj())
						}
					}
				case *ast.UnaryExpr:
					if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND && p.info.Selections[sel] != nil {
						mark(p.Package, p.info.Selections[sel].Obj())
					}
				}
				return true
			})
		}
	}
	var bad []string
	declared := map[string]bool{}
	for f, id := range knobs {
		declared[id] = true
		switch why := knobExemptions[id]; {
		case !set[f] && why == "":
			bad = append(bad, id+": no program outside its package sets it")
		case set[f] && why != "":
			bad = append(bad, id+": a program sets it now; take it off the exemptions")
		}
	}
	for id := range knobExemptions {
		if !declared[id] {
			bad = append(bad, id+": exempt but not declared; take it off the exemptions")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	t.Logf("%d exported knob fields, %d exempt", len(knobs), len(knobExemptions))
}

// typedPackage is one type-checked package of the repository: its non-test
// files and what the type checker recorded about them.
type typedPackage struct {
	*types.Package
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
}

// typeCheckRepo type-checks the non-test files of every package in the root
// module and in benchmark/ from source. `go list` names each package's files
// (build constraints applied) and the export data of the standard library.
func typeCheckRepo(t *testing.T) []*typedPackage {
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	srcs := map[string]listed{}
	exports := map[string]string{}
	for _, dir := range []string{".", "benchmark"} {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else {
				srcs[p.ImportPath] = p
			}
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	done := map[string]*typedPackage{}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := srcs[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if p := done[path]; p != nil {
			return p.Package, nil
		}
		l := srcs[path]
		p := &typedPackage{fset: fset, info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(l.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		var err error
		if p.Package, err = (&types.Config{Importer: imp}).Check(path, fset, p.files, p.info); err != nil {
			return nil, err
		}
		done[path] = p
		return p.Package, nil
	}
	var pkgs []*typedPackage
	for path := range srcs {
		if _, err := check(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		pkgs = append(pkgs, done[path])
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
