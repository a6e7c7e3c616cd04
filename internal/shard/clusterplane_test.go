package shard

// Cluster-plane acceptance: a 3-shard + 1-replica in-process topology, one
// admin plane per node. Verifies the ISSUE-10 cluster plane end to end:
// /clusterz on any node merges every node's status into one topology view,
// degrades to an annotated partial result when a node dies, and a traced
// cross-shard transaction stitches into a multi-hop distributed trace with
// monotone per-hop stage offsets, served by /traces?distributed=1.
//
// The nodes are not newCluster's because the plane needs what the chaos
// harness leaves out: a tracer that samples every request (so traced frames
// come back with stage blocks) and an admin server per node, serving the
// node's own Status.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hiengine/internal/admin"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/node"
	"hiengine/internal/obs"
	"hiengine/internal/replica"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// cpNode is one cluster-plane node: its wire address, trace sink, and admin
// plane over a real listener.
type cpNode struct {
	name   string
	addr   string // wire address
	tracer *obs.Tracer
	adm    *httptest.Server
}

func (n *cpNode) adminAddr() string { return strings.TrimPrefix(n.adm.URL, "http://") }

// cpGet fetches path from node n's admin plane and decodes the JSON body.
func cpGet(t *testing.T, n *cpNode, path string, out any) {
	t.Helper()
	resp, err := http.Get(n.adm.URL + path)
	if err != nil {
		t.Fatalf("%s GET %s: %v", n.name, path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s GET %s: %v", n.name, path, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("%s GET %s: HTTP %d: %s", n.name, path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("%s GET %s: not JSON: %v\n%s", n.name, path, err, body)
	}
}

// cpClusterNode mirrors the /clusterz per-node document.
type cpClusterNode struct {
	Name   string         `json:"name"`
	Error  string         `json:"error"`
	Status map[string]any `json:"status"`
}

// newClusterPlane builds 3 shard nodes plus one replica of shard 0, each
// with its own admin plane whose peer list names every other node.
func newClusterPlane(t *testing.T) (*Map, []*cpNode) {
	t.Helper()
	const nShards = 3

	// Peer registry shared by every admin's Peers closure. The mutex is the
	// happens-before edge between setup (appends) and the admin handler
	// goroutines (reads).
	var (
		peerMu   sync.Mutex
		allPeers []admin.Peer
	)
	addPeer := func(name, addr string) {
		peerMu.Lock()
		allPeers = append(allPeers, admin.Peer{Name: name, Addr: addr})
		peerMu.Unlock()
	}
	peersFor := func(self string) func() []admin.Peer {
		return func() []admin.Peer {
			peerMu.Lock()
			defer peerMu.Unlock()
			out := make([]admin.Peer, 0, len(allPeers))
			for _, p := range allPeers {
				if p.Name != self {
					out = append(out, p)
				}
			}
			return out
		}
	}

	lns := make([]net.Listener, nShards)
	addrs := make([]string, nShards)
	for i := range lns {
		lns[i] = listen(t)
		addrs[i] = lns[i].Addr().String()
	}
	m, err := NewMap(1, addrs)
	if err != nil {
		t.Fatal(err)
	}

	var nodes []*cpNode
	join := func(name string, reg *obs.Registry, nd *node.Node) {
		adm := admin.New(admin.Config{
			Registry: reg,
			Tracer:   nd.Tracer(),
			Info:     map[string]string{"name": name},
			Status:   nd.Status,
			Peers:    peersFor(name),
		})
		n := &cpNode{name: name, addr: nd.Addr(), tracer: nd.Tracer(), adm: httptest.NewServer(adm.Handler())}
		t.Cleanup(n.adm.Close)
		addPeer(n.name, n.adminAddr())
		nodes = append(nodes, n)
	}
	for i := range lns {
		name := fmt.Sprintf("shard%d", i)
		reg := obs.NewRegistry("cplane-" + name)
		sm := m.ShardMap
		sm.SelfID = uint32(i)
		engine, err := core.Open(core.Config{
			Service: srss.New(srss.Config{Model: delay.Zero()}),
			Workers: 8,
			Obs:     reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.SetShardMap(wire.EncodeShardMap(&sm)); err != nil {
			t.Fatal(err)
		}
		join(name, reg, serveOn(t, engine, lns[i], node.Config{TraceSample: 1}))
	}

	// Replica of shard 0: bootstrapped over the wire, polling continuously.
	rreg := obs.NewRegistry("cplane-replica0")
	f, rep, err := replica.Bootstrap(addrs[0], core.Config{
		Service: srss.New(srss.Config{Model: delay.Zero()}),
		Workers: 8,
		Obs:     rreg,
	}, core.RecoverOptions{}, rreg)
	if err != nil {
		t.Fatalf("replica bootstrap: %v", err)
	}
	join("replica0", rreg, serveOn(t, rep.Engine(), listen(t), node.Config{
		Follower: f, PrimaryAddr: addrs[0], Poll: 2 * time.Millisecond,
	}))

	// Schema on every shard; remember shard 0's CSN so the replica's
	// applied watermark is provably past the create.
	var csn0 uint64
	for i := 0; i < nShards; i++ {
		cl, err := client.New(client.Options{Addr: addrs[i]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Exec("CREATE TABLE bench (id INT, val INT, PRIMARY KEY(id))"); err != nil {
			cl.Close()
			t.Fatalf("shard %d create: %v", i, err)
		}
		if i == 0 {
			csn0 = cl.LastCSN()
		}
		cl.Close()
	}
	if !f.WaitCSN(csn0, 10*time.Second) {
		t.Fatalf("replica never reached CSN %d (applied %d)", csn0, f.AppliedCSN())
	}
	return m, nodes
}

func TestClusterPlaneAcceptance(t *testing.T) {
	m, nodes := newClusterPlane(t)

	// --- /clusterz merges every node, from any node ----------------------
	var view struct {
		Nodes []cpClusterNode `json:"nodes"`
	}
	cpGet(t, nodes[1], "/clusterz?timeout_ms=5000", &view)
	if len(view.Nodes) != 4 {
		t.Fatalf("clusterz from shard1: %d nodes, want 4", len(view.Nodes))
	}
	byName := make(map[string]cpClusterNode, len(view.Nodes))
	for _, n := range view.Nodes {
		byName[n.Name] = n
	}
	for _, want := range []struct{ name, role string }{
		{"shard0", "primary"}, {"shard1", "primary"}, {"shard2", "primary"}, {"replica0", "replica"},
	} {
		n, ok := byName[want.name]
		if !ok {
			t.Fatalf("clusterz missing node %s: %+v", want.name, view.Nodes)
		}
		if n.Error != "" || n.Status["role"] != want.role {
			t.Fatalf("node %s: error=%q status=%+v", want.name, n.Error, n.Status)
		}
	}
	if _, ok := byName["replica0"].Status["lag_csn"]; !ok {
		t.Fatalf("replica status misses lag_csn: %+v", byName["replica0"].Status)
	}

	// --- traced cross-shard transaction ----------------------------------
	r := NewRouter(m, client.Options{Addr: "routed"}, nil)
	defer r.Close()
	r.Trace(true)
	r.SetTracer(nodes[0].tracer)

	// Two keys on distinct shards.
	k1 := int64(1)
	k2 := k1 + 1
	for m.ShardOfInt(k2) == m.ShardOfInt(k1) {
		k2++
	}
	tx := r.Begin()
	if _, err := tx.Exec(k1, "INSERT INTO bench VALUES (?, ?)", core.I(k1), core.I(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(k2, "INSERT INTO bench VALUES (?, ?)", core.I(k2), core.I(20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	dt := r.LastDistTrace()
	if dt == nil {
		t.Fatal("no distributed trace assembled for the cross-shard commit")
	}
	if dt.Shards < 2 {
		t.Fatalf("stitched trace covers %d shards, want >= 2: %+v", dt.Shards, dt)
	}
	if len(dt.Hops) < 2 {
		t.Fatalf("stitched trace has %d hops, want >= 2", len(dt.Hops))
	}
	if dt.Total <= 0 || dt.Prepare <= 0 || dt.Decide <= 0 {
		t.Fatalf("coordinator phases not timed: total=%v prepare=%v decide=%v", dt.Total, dt.Prepare, dt.Decide)
	}
	distinct := make(map[uint32]bool)
	lastHop := uint32(0)
	for _, h := range dt.Hops {
		if h.Hop <= lastHop {
			t.Fatalf("hop ids not strictly increasing: %d after %d", h.Hop, lastHop)
		}
		lastHop = h.Hop
		if h.Info == nil || len(h.Info.Stages) == 0 {
			t.Fatalf("hop %d has no server stage block: %+v", h.Hop, h)
		}
		if h.HasShard {
			distinct[h.Shard] = true
		}
		for j := 1; j < len(h.Info.Stages); j++ {
			if h.Info.Stages[j].BeginNS < h.Info.Stages[j-1].BeginNS {
				t.Fatalf("hop %d stage offsets not monotone: %+v", h.Hop, h.Info.Stages)
			}
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("hops tag %d distinct shards, want >= 2: %+v", len(distinct), dt.Hops)
	}

	// The coordinator published the tree to shard0's tracer, so shard0's
	// admin serves it from the distributed ring.
	var traces struct {
		Distributed []*obs.DistTraceRecord `json:"distributed"`
	}
	cpGet(t, nodes[0], "/traces?distributed=1", &traces)
	found := false
	for _, rec := range traces.Distributed {
		if rec.TraceID == dt.TraceID {
			found = true
			if rec.Shards != dt.Shards || len(rec.Hops) != len(dt.Hops) {
				t.Fatalf("published record diverges from tree: %+v vs %+v", rec, dt)
			}
		}
	}
	if !found {
		t.Fatalf("trace %d not in /traces?distributed=1 (%d records)", dt.TraceID, len(traces.Distributed))
	}

	// --- partial failure: one node down, /clusterz still answers ---------
	nodes[2].adm.Close()
	var after struct {
		Nodes []cpClusterNode `json:"nodes"`
	}
	cpGet(t, nodes[0], "/clusterz?timeout_ms=2000", &after)
	if len(after.Nodes) != 4 {
		t.Fatalf("clusterz after kill: %d nodes, want 4", len(after.Nodes))
	}
	for _, n := range after.Nodes {
		switch n.Name {
		case "shard2":
			if n.Error == "" {
				t.Fatalf("dead node shard2 not annotated: %+v", n)
			}
			if n.Status != nil {
				t.Fatalf("dead node shard2 carries status: %+v", n)
			}
		default:
			if n.Error != "" {
				t.Fatalf("live node %s annotated with error %q", n.Name, n.Error)
			}
		}
	}
}
