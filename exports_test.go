package hiengine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under internal/
// that no other program file references, each with why it stays. It only
// shrinks: a name is deleted, or moved into its package's export_test.go,
// once nothing needs it.
var exportAllowlist = map[string]string{
	// Named by an open ROADMAP item.
	"client.Session.CommitPipe": "ROADMAP 2(b): the pipelined client calls it",
	"client.Session.ExecPipe":   "ROADMAP 2(b): the pipelined client calls it",
	"client.Stmt.ExecPipe":      "ROADMAP 2(b): the pipelined client calls it",
	"srss.Service.RepairOnce":   "ROADMAP 3(c): the storage tier's repair loop calls it",

	// Test APIs other packages' tests use.
	"admin.Server.Handler":      "node and shard tests serve the admin plane over httptest",
	"chaos.Engine.ClearCrash":   "crash tests in core, shard, srss and wal reset a fired crash",
	"chaos.Engine.Crashed":      "shard tests ask whether a crash site fired",
	"chaos.Engine.Disarm":       "core, server, shard and wal tests disarm a site mid-test",
	"chaos.Engine.Fired":        "core, replica and server tests count a site's firings",
	"chaos.New":                 "fault-injection tests in seven packages build their engine",
	"client.Client.Greeting":    "replica tests read the role a replica announces",
	"client.Session.ExecAt":     "replica tests read at a CSN token",
	"core.B":                    "client, sqlfront and wire tests build BYTES values",
	"core.RowView.NumCols":      "wire tests compare the row walker with the decoder",
	"core.Value.Bytes":          "client and wire tests read BYTES values back",
	"core.Value.IsNull":         "wire tests check NULL round trips",
	"replica.NewShipper":        "node tests dial a fenced primary as a follower would",
	"replica.Shipper.Hello":     "node tests check a fenced primary refuses a follower",
	"srss.Node.Heal":            "chaos, srss and wal tests heal a node they failed",
	"tpcc.Driver.DrainSessions": "the root package's TPC-C benchmark drains its sessions",
	"tpcc.Driver.RunOne":        "the root package's TPC-C benchmark runs one transaction at a time",
	"wal.HeaderLen":             "core tests find a payload inside its log record",
	"wal.MakeAddr":              "core tests build log addresses",
	"wal.Manager.ScanSegment":   "core tests read back what a commit logged",
	"wire.Error.Retryable":      "server tests check which refusals a client may retry",
	"wire.Fatal":                "server tests check which codes end a session",
	"wire.ReadFrame":            "server tests speak the protocol on a raw connection",
}

// stdlibCalls are the method names the standard library calls through its
// own interfaces (fmt, errors), where no file of this repository names them.
var stdlibCalls = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// TestExportsHaveCallers: every exported top-level function and method
// declared in a non-test file under internal/ is referenced from another
// non-test file of the repository (benchmark/ included). A function counts
// as referenced through its package's import, or by its bare name from
// another file of its package; a method through any selector of its name or
// an interface method of its name, since a call through an interface names
// no receiver type. An exported name only tests use is surface: delete it,
// or move it into its package's export_test.go.
func TestExportsHaveCallers(t *testing.T) {
	type decl struct {
		id, dir, file string
		method        bool
	}
	var decls []decl
	funcRefs := map[string]map[string]bool{}   // package dir + "." + name -> referencing files
	methodRefs := map[string]map[string]bool{} // method name -> referencing files
	var file string
	ref := func(m map[string]map[string]bool, key string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][file] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		file = filepath.ToSlash(p)
		dir := path.Dir(file)
		imports := map[string]string{} // local name -> package dir
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = strings.TrimPrefix(ip, "hiengine/")
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
					id := f.Name.Name + "." + n.Name.Name
					if n.Recv != nil {
						id = f.Name.Name + "." + recvName(n.Recv.List[0].Type) + "." + n.Name.Name
					}
					decls = append(decls, decl{id, dir, file, n.Recv != nil})
				}
				// Visit all but the declared name.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				ref(methodRefs, n.Sel.Name)
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					ref(funcRefs, imports[x.Name]+"."+n.Sel.Name)
					return false
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ref(methodRefs, name.Name)
					}
				}
			case *ast.Ident:
				ref(funcRefs, dir+"."+n.Name)
			}
			return true
		}
		for _, d := range f.Decls {
			ast.Inspect(d, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	seen := map[string]bool{}
	for _, d := range decls {
		name := d.id[strings.LastIndex(d.id, ".")+1:]
		refs := funcRefs[d.dir+"."+name]
		if d.method {
			refs = methodRefs[name]
		}
		used := d.method && stdlibCalls[name]
		for f := range refs {
			used = used || f != d.file
		}
		switch why := exportAllowlist[d.id]; {
		case !used && why == "":
			bad = append(bad, d.id+" ("+d.file+"): exported, and no other program file calls it")
		case used && why != "":
			bad = append(bad, d.id+" ("+d.file+"): has a caller now; take it off the allowlist")
		}
		seen[d.id] = true
	}
	for id := range exportAllowlist {
		if !seen[id] {
			bad = append(bad, id+": allowlisted but not declared; take it off the list")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// recvName is the type name of a method receiver: T of T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
