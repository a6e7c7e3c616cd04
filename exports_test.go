package hiengine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under internal/
// that no other program file references, each with why it stays. It only
// shrinks: a name is deleted, or moved into its package's export_test.go,
// once nothing needs it.
var exportAllowlist = map[string]string{
	// Named by an open ROADMAP item.
	"srss.Service.RepairOnce": "ROADMAP 3(c): the storage tier's repair loop calls it",

	// Test APIs other packages' tests use.
	"admin.Server.Handler":         "node and shard tests serve the admin plane over httptest",
	"chaos.Engine.Arm":             "fault-injection tests in core, node, replica, server, shard, srss and wal arm a site",
	"chaos.Engine.ClearCrash":      "crash tests in core, shard, srss and wal reset a fired crash",
	"chaos.Engine.Crashed":         "shard tests ask whether a crash site fired",
	"chaos.Engine.Disarm":          "core, server, shard and wal tests disarm a site mid-test",
	"chaos.Engine.Fired":           "core, replica and server tests count a site's firings",
	"chaos.Engine.Hits":            "core and wal tests count a site's checks",
	"chaos.Engine.Rand":            "core tests draw from an engine's seeded stream",
	"chaos.New":                    "fault-injection tests in seven packages build their engine",
	"client.Client.Greeting":       "replica tests read the role a replica announces",
	"client.Session.ExecAt":        "replica tests read at a CSN token",
	"client.Session.ShardMap":      "node, shard and hiserver tests fetch a node's shard map",
	"client.Stmt.NumParams":        "server tests check the parameter count a prepare returns",
	"core.B":                       "client, sqlfront and wire tests build BYTES values",
	"core.Table.Index":             "the chaos torture checks a recovered table's indexes against its rows",
	"core.Table.Rows":              "the chaos torture walks a recovered table's rows",
	"core.Value.Bytes":             "client and wire tests read BYTES values back",
	"core.Value.IsNull":            "wire tests check NULL round trips",
	"core.Value.Kind":              "wire tests compare decoded value kinds",
	"delay.CountingWaiter.Total":   "clock, numa, srss and baseline tests read the latency charged",
	"node.Node.Serve":              "replica failover tests revive a stopped node on a new listener",
	"replica.Follower.Poll":        "node tests drive one follower poll against a failing primary",
	"replica.NewShipper":           "node tests dial a fenced primary as a follower would",
	"replica.Shipper.Close":        "node tests close the shipper they dialled",
	"replica.Shipper.Hello":        "node tests check a fenced primary refuses a follower",
	"replica.Shipper.ObserveEpoch": "node tests fence a primary with a newer epoch",
	"srss.Node.Heal":               "chaos, srss and wal tests heal a node they failed",
	"wal.HeaderLen":                "core tests find a payload inside its log record",
	"wal.MakeAddr":                 "core tests build log addresses",
	"wire.Error.Retryable":         "server tests check which refusals a client may retry",
	"wire.Fatal":                   "server tests check which codes end a session",
	"wire.ReadFrame":               "server tests speak the protocol on a raw connection",
}

// TestExportsHaveCallers: every exported top-level function and method
// declared in a non-test file under internal/ is used by another non-test
// file of the repository (benchmark/ included), as exportUses resolves uses.
// A program under examples/ is such a file: an example is a program that
// shows the API to its reader, and what it calls is API it needs. An
// exported name only tests use is surface: delete it, unexport it if its own
// package's tests are all that need it, or allowlist the test seam of
// another package.
func TestExportsHaveCallers(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	seen := map[string]bool{}
	for _, x := range exportUses(typeCheckRepo(t)) {
		rel, _ := filepath.Rel(root, x.file)
		switch why := exportAllowlist[x.id]; {
		case !x.used && why == "":
			bad = append(bad, x.id+" ("+rel+"): exported, and no other program file uses it")
		case x.used && why != "":
			bad = append(bad, x.id+" ("+rel+"): has a caller now; take it off the allowlist")
		}
		seen[x.id] = true
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

// TestStdlibCallsNeedTheInterface: a method named Error, Unwrap or String
// counts as called by the standard library only on a type that implements
// error (Error, Unwrap) or fmt.Stringer (String). The same names on any
// other type are exports like the rest, reported when uncalled.
func TestStdlibCallsNeedTheInterface(t *testing.T) {
	const src = `package snip

type E struct{}

func (E) Error() string  { return "e" }
func (*E) Unwrap() error { return nil }

type S int

func (*S) String() string { return "s" }

type T struct{}

func (T) Unwrap() error { return nil }
func (T) Error() int    { return 0 }
func (T) String() int   { return 0 }
`
	p := &typedPackage{fset: token.NewFileSet(), info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	f, err := parser.ParseFile(p.fset, "snip.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.files = []*ast.File{f}
	if p.Package, err = (&types.Config{}).Check("hiengine/internal/snip", p.fset, p.files, p.info); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, x := range exportUses([]*typedPackage{p}) {
		got[x.id] = x.used
	}
	want := map[string]bool{"snip.E.Error": true, "snip.E.Unwrap": true, "snip.S.String": true,
		"snip.T.Unwrap": false, "snip.T.Error": false, "snip.T.String": false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("used = %v, want %v", got, want)
	}
}

// export is one exported function or method of a package under internal/.
type export struct {
	id   string // pkg.Func or pkg.Type.Method
	file string // where it is declared
	used bool
}

// exportUses lists the exported top-level functions and methods of the
// packages under internal/ among pkgs, and whether another file of pkgs uses
// each. A use is resolved by type: a reference to that very function or
// method (to the generic one an instantiation comes from), so a same-named
// method of another type does not count. A method is also used where an
// interface method of its name is called and its type T, or *T, implements
// that interface, since such a call names no receiver type; and where the
// standard library calls it through an interface of its own (stdlibCall).
func exportUses(pkgs []*typedPackage) []export {
	// The files that use each function or method, and, by name, the
	// interface methods called. A selector's name is in Uses too, so Uses
	// alone covers calls, method values and expressions.
	refs := map[*types.Func]map[string]bool{}
	viaIface := map[string][]*types.Func{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if refs[fn] == nil {
				refs[fn] = map[string]bool{}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					viaIface[fn.Name()] = append(viaIface[fn.Name()], fn)
				}
			}
			refs[fn][p.fset.Position(id.Pos()).Filename] = true
		}
	}
	var out []export
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path(), "hiengine/internal/") {
			continue
		}
		for _, f := range p.files {
			file := p.fset.Position(f.Pos()).Filename
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				x := export{id: p.Name() + "." + fd.Name.Name, file: file}
				users := []*types.Func{fn}
				if fd.Recv != nil {
					x.id = p.Name() + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					users = append(users, implemented(fn, viaIface[fn.Name()])...)
					x.used = stdlibCall(fn)
				}
				for _, u := range users {
					for other := range refs[u] {
						x.used = x.used || other != file
					}
				}
				out = append(out, x)
			}
		}
	}
	return out
}

// stdlibCalls are the interfaces through which the standard library calls
// a method of the repository where no file of it names the call: fmt and
// errors call Error and Unwrap on an error, fmt calls String on a
// fmt.Stringer.
var stdlibCalls = func() map[string]*types.Interface {
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	str := types.NewVar(token.NoPos, nil, "", types.Typ[types.String])
	stringer := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(str), false))}, nil).Complete()
	return map[string]*types.Interface{"Error": errorIface, "Unwrap": errorIface, "String": stringer}
}()

// stdlibCall reports whether the standard library calls method m through
// one of stdlibCalls.
func stdlibCall(m *types.Func) bool {
	iface := stdlibCalls[m.Name()]
	return iface != nil && implements(m, iface)
}

// implemented returns the methods among called whose interface method m's
// receiver type implements.
func implemented(m *types.Func, called []*types.Func) []*types.Func {
	var out []*types.Func
	for _, im := range called {
		if implements(m, im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
			out = append(out, im)
		}
	}
	return out
}

// implements reports whether method m's receiver type T, or *T, implements
// iface.
func implements(m *types.Func, iface *types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
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
