package shard

import (
	"net"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/node"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// tnode is one shard: an engine behind a node, with its own chaos engine
// (so crashing one node never poisons the others) and a stable address that
// survives restarts (the shard map is static).
type tnode struct {
	id     uint32
	addr   string
	ch     *chaos.Engine
	svc    *srss.Service
	engine *core.Engine
	node   *node.Node
	armed  []string // chaos sites armed via arm(), cleared on restart
}

// arm installs a chaos rule on this node, remembering the site so restart
// can disarm it (the restarted process starts healthy).
func (n *tnode) arm(r chaos.Rule) {
	n.ch.Arm(r)
	n.armed = append(n.armed, r.Site)
}

type cluster struct {
	t     *testing.T
	m     *Map
	nodes []*tnode
}

// newCluster reserves n loopback addresses, builds the static map over
// them, and starts one node per shard.
func newCluster(t *testing.T, n int, seed uint64) *cluster {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		lns[i] = listen(t)
		addrs[i] = lns[i].Addr().String()
	}
	m, err := NewMap(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{t: t, m: m}
	for i := range lns {
		nd := &tnode{id: uint32(i), addr: addrs[i], ch: chaos.New(seed + uint64(i)*1000)}
		sm := m.ShardMap
		sm.SelfID = nd.id
		nd.svc = srss.New(srss.Config{Model: delay.Zero(), Chaos: nd.ch})
		engine, err := core.Open(core.Config{
			Service:     nd.svc,
			Workers:     8,
			SegmentSize: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.SetShardMap(wire.EncodeShardMap(&sm)); err != nil {
			t.Fatal(err)
		}
		nd.serve(t, engine, lns[i])
		c.nodes = append(c.nodes, nd)
	}
	return c
}

// listen reserves a loopback port.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serveOn stands a node up over engine on ln, the way production does; the
// test's end closes it.
func serveOn(t *testing.T, engine *core.Engine, ln net.Listener, cfg node.Config) *node.Node {
	t.Helper()
	n, err := node.New(engine, ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func (n *tnode) serve(t *testing.T, engine *core.Engine, ln net.Listener) {
	n.engine = engine
	n.node = serveOn(t, engine, ln, node.Config{
		DrainTimeout: 250 * time.Millisecond,
		SlotWait:     100 * time.Millisecond,
	})
}

// requests is the number of request frames the node's server has seen.
func (n *tnode) requests() int64 {
	var total int64
	for _, op := range wire.RequestOps() {
		total += n.engine.Obs().Counter("server.requests." + op.String()).Load()
	}
	return total
}

// crash simulates a node's process death: the server drops every
// connection and the engine object is discarded. The SRSS service plays
// the durable storage that survives.
func (n *tnode) crash() { n.node.Close() }

// restart recovers the node from its durable state and serves again on the
// same address. Chaos is cleared: the restarted process starts healthy.
func (n *tnode) restart(t *testing.T) *core.RecoveryStats {
	t.Helper()
	n.ch.ClearCrash()
	for _, site := range n.armed {
		n.ch.Disarm(site)
	}
	n.armed = nil
	manifest := n.engine.ManifestID()
	e2, stats, err := core.Recover(core.Config{
		Service:     n.svc,
		Workers:     8,
		SegmentSize: 1 << 20,
	}, manifest, core.RecoverOptions{})
	if err != nil {
		t.Fatalf("shard %d restart: %v", n.id, err)
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		t.Fatalf("shard %d rebind %s: %v", n.id, n.addr, err)
	}
	n.serve(t, e2, ln)
	return stats
}

// client opens a direct (router-less) client to one shard.
func (c *cluster) client(t *testing.T, id uint32, mutate func(*client.Options)) *client.Client {
	t.Helper()
	opts := client.Options{Addr: c.nodes[id].addr}
	if mutate != nil {
		mutate(&opts)
	}
	cl, err := client.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// router builds a router over the cluster map with a dedicated
// coordinator-side chaos engine.
func (c *cluster) router(t *testing.T, ch *chaos.Engine, mutate func(*client.Options)) *Router {
	t.Helper()
	opts := client.Options{Addr: "unused"}
	if mutate != nil {
		mutate(&opts)
	}
	r := NewRouter(c.m, opts, ch)
	t.Cleanup(r.Close)
	return r
}

// createBench creates the bench table on every shard and seeds each listed
// key with val.
func (c *cluster) createBench(t *testing.T, keys []int64, val int64) {
	t.Helper()
	for _, n := range c.nodes {
		cl := c.client(t, n.id, nil)
		s, err := cl.Session()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("CREATE TABLE bench (id INT, val INT, PRIMARY KEY(id))"); err != nil {
			t.Fatalf("shard %d create: %v", n.id, err)
		}
		s.Close()
	}
	r := c.router(t, nil, nil)
	for _, k := range keys {
		if _, err := r.Exec(k, "INSERT INTO bench VALUES (?, ?)", core.I(k), core.I(val)); err != nil {
			t.Fatalf("seed key %d: %v", k, err)
		}
	}
}

// readVal reads one key's val through the router's single-shard path.
func readVal(t *testing.T, r *Router, key int64) (int64, bool) {
	t.Helper()
	res, err := r.Exec(key, "SELECT val FROM bench WHERE id = ?", core.I(key))
	if err != nil {
		t.Fatalf("read key %d: %v", key, err)
	}
	if len(res.Rows) == 0 {
		return 0, false
	}
	return res.Rows[0][0].Int(), true
}

// keysOnDistinctShards finds count keys that all land on pairwise distinct
// shards, scanning upward from start.
func (c *cluster) keysOnDistinctShards(start int64, count int) []int64 {
	keys := make([]int64, 0, count)
	used := make(map[uint32]bool)
	for k := start; len(keys) < count; k++ {
		id := c.m.ShardOfInt(k)
		if !used[id] {
			used[id] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// keyOnShard finds a key owned by shard id, scanning upward from start.
func (c *cluster) keyOnShard(start int64, id uint32) int64 {
	for k := start; ; k++ {
		if c.m.ShardOfInt(k) == id {
			return k
		}
	}
}
