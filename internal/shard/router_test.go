package shard

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/wire"
)

func TestMapAndGTID(t *testing.T) {
	m, err := NewMap(3, []string{"a:1", "b:2", "c:3"})
	if err != nil {
		t.Fatal(err)
	}
	// Placement is deterministic and total.
	for k := int64(0); k < 1000; k++ {
		id := m.ShardOfInt(k)
		if id != m.ShardOfInt(k) || int(id) >= m.N() {
			t.Fatalf("unstable or out-of-range placement for %d: %d", k, id)
		}
	}
	// Roughly balanced (FNV over 8-byte keys: no shard should be empty or
	// hold everything over 1000 keys).
	counts := make([]int, m.N())
	for k := int64(0); k < 1000; k++ {
		counts[m.ShardOfInt(k)]++
	}
	for id, n := range counts {
		if n < 100 {
			t.Fatalf("shard %d holds only %d/1000 keys: %v", id, n, counts)
		}
	}
	// The map round-trips through its wire/manifest encoding.
	m2, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 3 || m2.N() != 3 || m2.Addr(1) != "b:2" {
		t.Fatalf("map round-trip: %+v", m2)
	}
	// GTIDs name their home shard.
	g := wire.NewGTID(2, 0xabc, 7)
	home, err := wire.HomeShard(g)
	if err != nil || home != 2 {
		t.Fatalf("HomeShard(%q) = %d, %v", g, home, err)
	}
	for _, bad := range []string{"", "x1.2.3", "h.1.2", "hx.1.2"} {
		if _, err := wire.HomeShard(bad); err == nil {
			t.Fatalf("HomeShard(%q) accepted", bad)
		}
	}
}

func TestSingleShardAndCrossShard(t *testing.T) {
	c := newCluster(t, 3, 42)
	keys := c.keysOnDistinctShards(1, 3)
	c.createBench(t, keys, 100)
	r := c.router(t, nil, nil)

	// Single-shard autocommit routes to the owner; every shard sees only
	// its own keys.
	for _, k := range keys {
		if v, ok := readVal(t, r, k); !ok || v != 100 {
			t.Fatalf("key %d: %d %v", k, v, ok)
		}
		owner := c.m.ShardOfInt(k)
		for _, n := range c.nodes {
			cl := c.client(t, n.id, nil)
			res, err := cl.Exec("SELECT val FROM bench WHERE id = ?", core.I(k))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(res.Rows) == 1, n.id == owner; got != want {
				t.Fatalf("key %d on shard %d: present=%v want %v", k, n.id, got, want)
			}
		}
	}

	// A single-shard transaction takes the ordinary commit path.
	tx := r.Begin()
	if _, err := tx.Exec(keys[0], "UPDATE bench SET val = ? WHERE id = ?", core.I(110), core.I(keys[0])); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.GTID() != "" {
		t.Fatalf("single-shard commit minted a gtid: %q", tx.GTID())
	}
	if v, _ := readVal(t, r, keys[0]); v != 110 {
		t.Fatalf("single-shard commit lost: %d", v)
	}

	// A cross-shard transfer commits atomically via 2PC.
	tx = r.Begin()
	mustTx := func(key int64, val int64) {
		t.Helper()
		if _, err := tx.Exec(key, "UPDATE bench SET val = ? WHERE id = ?", core.I(val), core.I(key)); err != nil {
			t.Fatal(err)
		}
	}
	mustTx(keys[0], 80)
	mustTx(keys[1], 130)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.GTID() == "" {
		t.Fatal("cross-shard commit took the non-2PC path")
	}
	if home, err := wire.HomeShard(tx.GTID()); err != nil || home != c.m.ShardOfInt(keys[0]) {
		t.Fatalf("gtid home %q: %d, %v", tx.GTID(), home, err)
	}
	if v, _ := readVal(t, r, keys[0]); v != 80 {
		t.Fatalf("transfer debit lost: %d", v)
	}
	if v, _ := readVal(t, r, keys[1]); v != 130 {
		t.Fatalf("transfer credit lost: %d", v)
	}
	// The coordinator confirmed the commit durable at every participant
	// and pruned the gtid cluster-wide (OpTxnForget), so the home answers
	// TxnUnknown -- nobody will ever ask about this transaction again.
	cl := c.client(t, c.m.ShardOfInt(keys[0]), nil)
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, csn, err := s.TxnStatus(tx.GTID())
	if err != nil || st != wire.TxnUnknown || csn != 0 {
		t.Fatalf("home status after confirmed commit: %d csn=%d err=%v", st, csn, err)
	}

	// Rollback undoes everything everywhere.
	tx = r.Begin()
	mustTx(keys[0], 1)
	mustTx(keys[2], 2)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if v, _ := readVal(t, r, keys[0]); v != 80 {
		t.Fatalf("rollback leaked: %d", v)
	}
	if v, _ := readVal(t, r, keys[2]); v != 100 {
		t.Fatalf("rollback leaked: %d", v)
	}
}

// TestVoteNoAbortsEverywhere: a participant that fails phase one ("no"
// vote) forces the whole transaction down; prepared siblings abort and no
// shard applies anything.
func TestVoteNoAbortsEverywhere(t *testing.T) {
	c := newCluster(t, 2, 7)
	keys := c.keysOnDistinctShards(1, 2)
	c.createBench(t, keys, 100)
	r := c.router(t, nil, nil)

	// The shard owning keys[1] refuses its next prepare.
	victim := c.nodes[c.m.ShardOfInt(keys[1])]
	victim.arm(chaos.Rule{Site: core.SitePrepareLog, Action: chaos.Fault, OnHit: 1})

	tx := r.Begin()
	for i, k := range keys {
		if _, err := tx.Exec(k, "UPDATE bench SET val = ? WHERE id = ?", core.I(int64(200+i)), core.I(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded past a failed vote")
	}
	for _, k := range keys {
		if v, _ := readVal(t, r, k); v != 100 {
			t.Fatalf("failed-vote txn leaked on key %d: %d", k, v)
		}
	}
	// Nothing stays in-doubt: the prepared sibling was told to abort.
	for _, n := range c.nodes {
		if got := n.engine.InDoubt(); len(got) != 0 {
			t.Fatalf("shard %d in-doubt after failed vote: %v", n.id, got)
		}
	}
}

// TestErrorIdentityThroughRouter: the single-shard routed path preserves
// error identity and wire-code classification exactly as the direct client
// path does (satellite: routing must not launder errors).
func TestErrorIdentityThroughRouter(t *testing.T) {
	t.Run("stale_epoch", func(t *testing.T) {
		c := newCluster(t, 2, 11)
		keys := c.keysOnDistinctShards(1, 2)
		c.createBench(t, keys, 100)
		r := c.router(t, nil, nil)
		// Fence the owner of keys[0]: a newer lineage claimed primacy.
		owner := c.nodes[c.m.ShardOfInt(keys[0])]
		owner.engine.ObserveEpoch(owner.engine.Epoch() + 1)
		_, err := r.exec(keys[0], "UPDATE bench SET val = 1 WHERE id = ?", core.I(keys[0]))
		if !errors.Is(err, core.ErrStaleEpoch) {
			t.Fatalf("fenced write through router: %v", err)
		}
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeStaleEpoch {
			t.Fatalf("fenced write code: %v", err)
		}
	})

	t.Run("busy", func(t *testing.T) {
		c := newCluster(t, 2, 12)
		keys := c.keysOnDistinctShards(1, 2)
		c.createBench(t, keys, 100)
		owner := c.m.ShardOfInt(keys[0])
		// Pin every worker slot on the owner with open transactions.
		cl := c.client(t, owner, func(o *client.Options) { o.PoolSize = 16 })
		for i := 0; i < c.nodes[owner].engine.Workers(); i++ {
			s, err := cl.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			// BEGIN reaches the server, and leases its slot, with the
			// transaction's first statement.
			if _, err := s.Exec("SELECT val FROM bench WHERE id = ?", core.I(keys[0])); err != nil {
				t.Fatal(err)
			}
		}
		r := c.router(t, nil, func(o *client.Options) { o.MaxRetries = 1 })
		_, err := r.exec(keys[0], "UPDATE bench SET val = 1 WHERE id = ?", core.I(keys[0]))
		if !errors.Is(err, wire.ErrServerBusy) {
			t.Fatalf("slot-starved write through router: %v", err)
		}
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeBusy {
			t.Fatalf("slot-starved code: %v", err)
		}
	})

	t.Run("no_primary", func(t *testing.T) {
		c := newCluster(t, 2, 13)
		keys := c.keysOnDistinctShards(1, 2)
		c.createBench(t, keys, 100)
		// A dead candidate address for failover to probe.
		dead, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := dead.Addr().String()
		dead.Close()
		r := c.router(t, nil, func(o *client.Options) {
			o.ReplicaAddrs = []string{deadAddr}
			o.FailoverRetries = 1
			o.MaxRetries = 1
		})
		// Warm the route, then kill the owner.
		if _, err := r.exec(keys[0], "UPDATE bench SET val = 1 WHERE id = ?", core.I(keys[0])); err != nil {
			t.Fatal(err)
		}
		c.nodes[c.m.ShardOfInt(keys[0])].crash()
		_, err = r.exec(keys[0], "UPDATE bench SET val = 2 WHERE id = ?", core.I(keys[0]))
		if !errors.Is(err, client.ErrNoPrimary) {
			t.Fatalf("dead-shard write through router: %v", err)
		}
		// The sibling shard keeps serving through the same router.
		if _, err := r.exec(keys[1], "UPDATE bench SET val = 3 WHERE id = ?", core.I(keys[1])); err != nil {
			t.Fatalf("healthy shard collateral damage: %v", err)
		}
	})

	t.Run("conflict", func(t *testing.T) {
		c := newCluster(t, 2, 14)
		keys := c.keysOnDistinctShards(1, 2)
		c.createBench(t, keys, 100)
		r := c.router(t, nil, nil)
		// Hold an uncommitted write on keys[0] via a direct session.
		cl := c.client(t, c.m.ShardOfInt(keys[0]), nil)
		s, err := cl.Session()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("UPDATE bench SET val = 9 WHERE id = ?", core.I(keys[0])); err != nil {
			t.Fatal(err)
		}
		// The distributed transaction hits the lock: same conflict
		// identity as in-process.
		tx := r.Begin()
		_, err = tx.Exec(keys[0], "UPDATE bench SET val = 8 WHERE id = ?", core.I(keys[0]))
		if !errors.Is(err, engineapi.ErrConflict) {
			t.Fatalf("conflicting write through txn router: %v", err)
		}
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeConflict {
			t.Fatalf("conflict code: %v", err)
		}
		tx.Rollback()
	})
}

// TestTxnFirstTouchIsOneFrame: a distributed transaction opens a shard's
// server-side transaction with the first statement it sends there -- BEGIN
// rides that statement -- so touching a shard costs one request, and a
// single-shard transaction is its statements plus the commit.
func TestTxnFirstTouchIsOneFrame(t *testing.T) {
	c := newCluster(t, 2, 15)
	keys := c.keysOnDistinctShards(1, 2)
	c.createBench(t, keys, 100)
	r := c.router(t, nil, nil)
	for _, commit := range []bool{true, false} {
		tx := r.Begin()
		for i, k := range keys {
			n := c.nodes[c.m.ShardOfInt(k)]
			for j := int64(0); j < 2; j++ {
				val := 200 + j
				if !commit {
					val = 300 + j
				}
				before := n.requests()
				if _, err := tx.Exec(k, "UPDATE bench SET val = ? WHERE id = ?", core.I(val), core.I(k)); err != nil {
					t.Fatal(err)
				}
				if got := n.requests() - before; got != 1 {
					t.Fatalf("statement %d on shard %d (touch %d) took %d requests", j, n.id, i, got)
				}
			}
		}
		if commit {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if v, _ := readVal(t, r, k); v != 201 {
			t.Fatalf("key %d = %d after one committed and one rolled-back transaction, want 201", k, v)
		}
	}
	owner := c.nodes[c.m.ShardOfInt(keys[0])]
	before := owner.requests()
	tx := r.Begin()
	if _, err := tx.Exec(keys[0], "UPDATE bench SET val = 7 WHERE id = ?", core.I(keys[0])); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := owner.requests() - before; got != 2 {
		t.Fatalf("a one-statement single-shard transaction took %d requests, want the statement and the commit", got)
	}
}

// TestWrongShardDetection: a shard-id assertion against the wrong node is
// the typed CodeWrongShard refusal, and Bootstrap builds a working router
// from any single member address.
func TestWrongShardDetection(t *testing.T) {
	c := newCluster(t, 3, 21)
	keys := c.keysOnDistinctShards(1, 3)
	c.createBench(t, keys, 100)

	cl := c.client(t, 1, nil)
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Matching assertion succeeds and returns the map.
	m, err := s.ShardMap(true, 1)
	if err != nil || m.SelfID != 1 || len(m.Addrs) != 3 {
		t.Fatalf("self map: %+v, %v", m, err)
	}
	// Mismatched assertion is the typed refusal.
	if _, err := s.ShardMap(true, 2); !errors.Is(err, wire.ErrWrongShard) {
		t.Fatalf("wrong-shard assertion: %v", err)
	} else {
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeWrongShard {
			t.Fatalf("wrong-shard code: %v", err)
		}
	}

	// Bootstrap from one member, then read a key through the derived map.
	r, err := Bootstrap(c.nodes[2].addr, client.Options{Addr: "x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.topology().N() != 3 {
		t.Fatalf("bootstrapped map: %+v", r.topology())
	}
	if v, ok := readVal(t, r, keys[1]); !ok || v != 100 {
		t.Fatalf("bootstrapped read: %d %v", v, ok)
	}
}

// coordinatorWindows are phase two's two crash windows: before the home
// decision the transaction must abort everywhere, after it commit.
var coordinatorWindows = []struct {
	site       string
	wantCommit bool
}{
	{SiteCoordDecide, false},
	{SiteCoordFanout, true},
}

// crashCoordinator sets each of keys to base+i in one cross-shard
// transaction whose coordinator dies at site, and returns it.
func crashCoordinator(t *testing.T, c *cluster, site string, keys []int64, base int64) *Txn {
	t.Helper()
	coordCh := chaos.New(99)
	coordCh.Arm(chaos.Rule{Site: site, Action: chaos.Fault, OnHit: 1})
	r := c.router(t, coordCh, nil)
	tx := r.Begin()
	for i, k := range keys {
		if _, err := tx.Exec(k, "UPDATE bench SET val = ? WHERE id = ?", core.I(base+int64(i)), core.I(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit survived an injected coordinator crash")
	} else if !strings.Contains(err.Error(), tx.GTID()) {
		t.Fatalf("crash error does not name the gtid: %v", err)
	}
	return tx
}

// inDoubt counts the gtids in doubt across the cluster.
func (c *cluster) inDoubt() int {
	total := 0
	for _, n := range c.nodes {
		total += len(n.engine.InDoubt())
	}
	return total
}

// TestInDoubtTerminatesWithoutResolver: the coordinator dies in either
// phase-two window and nothing else ever speaks for it. The participants
// end the transaction themselves within terminateWithin, each the way the
// home's durable state says: no node keeps a gtid in doubt, and the two
// keys agree.
func TestInDoubtTerminatesWithoutResolver(t *testing.T) {
	for _, window := range coordinatorWindows {
		t.Run(window.site, func(t *testing.T) {
			c := newCluster(t, 3, 71)
			keys := c.keysOnDistinctShards(1, 2)
			c.createBench(t, keys, 100)
			crashCoordinator(t, c, window.site, keys, 200)
			if c.inDoubt() == 0 {
				t.Fatal("no participant left in doubt by the crash")
			}
			c.awaitTerminated(t)
			r := c.router(t, nil, nil)
			v0, _ := readVal(t, r, keys[0])
			v1, _ := readVal(t, r, keys[1])
			want := map[bool][2]int64{false: {100, 100}, true: {200, 201}}[window.wantCommit]
			if [2]int64{v0, v1} != want {
				t.Fatalf("keys read %d, %d after termination; want %v", v0, v1, want)
			}
		})
	}
}

// TestRecoverAfterCoordinatorCrash covers both phase-two crash windows
// from the restarted coordinator's side: the crash leaves some participant
// in doubt holding its write locks, the participants terminate it, and then
// a fresh router finds the transfer atomic and the keys writable again.
func TestRecoverAfterCoordinatorCrash(t *testing.T) {
	for _, window := range coordinatorWindows {
		t.Run(window.site, func(t *testing.T) {
			c := newCluster(t, 2, 31)
			keys := c.keysOnDistinctShards(1, 2)
			c.createBench(t, keys, 100)
			crashCoordinator(t, c, window.site, keys, 200)

			// Some participant is now in-doubt, holding its write locks.
			if c.inDoubt() == 0 {
				t.Fatal("no participant left in-doubt by the crash")
			}
			c.awaitTerminated(t)

			// Atomicity: both updates or neither. The restarted coordinator,
			// built from the same Options, is a new identity: its gtids do not
			// meet the dead one's (TestRoutersMintDisjointGTIDs).
			r2 := c.router(t, nil, nil)
			v0, _ := readVal(t, r2, keys[0])
			v1, _ := readVal(t, r2, keys[1])
			if window.wantCommit {
				if v0 != 200 || v1 != 201 {
					t.Fatalf("committed transfer incomplete: %d %d", v0, v1)
				}
			} else if v0 != 100 || v1 != 100 {
				t.Fatalf("aborted transfer leaked: %d %d", v0, v1)
			}
			// The locks went with the doubt: the restarted coordinator's
			// next transfer over the same keys commits.
			tx := r2.Begin()
			for i, k := range keys {
				if _, err := tx.Exec(k, "UPDATE bench SET val = ? WHERE id = ?", core.I(int64(400+i)), core.I(k)); err != nil {
					t.Fatalf("key %d still locked: %v", k, err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRoutersMintDisjointGTIDs: two routers built from one Options -- a
// coordinator and its restart -- mint disjoint gtids. The identity in a
// gtid is drawn per Router; Options.Seed only seeds backoff jitter.
func TestRoutersMintDisjointGTIDs(t *testing.T) {
	c := newCluster(t, 2, 17)
	keys := c.keysOnDistinctShards(1, 2)
	c.createBench(t, keys, 100)
	opts := func(o *client.Options) { o.Seed = 7 }
	seen := map[string]int{}
	for i := 0; i < 2; i++ {
		r := c.router(t, nil, opts)
		for n := 0; n < 3; n++ {
			tx := r.Begin()
			for j, k := range keys {
				if _, err := tx.Exec(k, "UPDATE bench SET val = ? WHERE id = ?", core.I(int64(10*n+j)), core.I(k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if tx.GTID() == "" {
				t.Fatal("a cross-shard commit minted no gtid")
			}
			if prev, dup := seen[tx.GTID()]; dup {
				t.Fatalf("router %d minted %s, as router %d did", i, tx.GTID(), prev)
			}
			seen[tx.GTID()] = i
		}
		r.Close()
	}
}

// TestRecoverAcrossParticipantRestart: a participant that crashes between
// prepare and decision restarts with the transaction in-doubt (write locks
// re-held) and still resolves.
func TestRecoverAcrossParticipantRestart(t *testing.T) {
	c := newCluster(t, 2, 41)
	keys := c.keysOnDistinctShards(1, 2)
	c.createBench(t, keys, 100)
	tx := crashCoordinator(t, c, SiteCoordFanout, keys, 300)

	// Crash and restart the non-home participant while it is in-doubt.
	home, err := wire.HomeShard(tx.GTID())
	if err != nil {
		t.Fatal(err)
	}
	other := c.nodes[1-home]
	if got := other.engine.InDoubt(); len(got) != 1 {
		t.Fatalf("non-home in-doubt before crash: %v", got)
	}
	other.crash()
	stats := other.restart(t)
	if stats.InDoubt != 1 {
		t.Fatalf("restart reconstructed %d in-doubt txns, want 1", stats.InDoubt)
	}

	// The restarted node reports the gtid's age once its terminator has
	// seen it, and terminates it as committed: the home decided.
	for deadline := time.Now().Add(terminateWithin); other.node.Status()["indoubt_oldest_ms"] == int64(0); {
		if time.Now().After(deadline) {
			t.Fatalf("indoubt_oldest_ms stayed 0 with %v in doubt", other.engine.InDoubt())
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.awaitTerminated(t)
	if st, _ := other.engine.TxnStatus(tx.GTID()); st != core.TxnCommitted {
		t.Fatalf("restarted participant terminated %s as %v, want committed", tx.GTID(), st)
	}
	r2 := c.router(t, nil, nil)
	v0, _ := readVal(t, r2, keys[0])
	v1, _ := readVal(t, r2, keys[1])
	if v0 != 300 || v1 != 301 {
		t.Fatalf("committed transfer incomplete after restart: %d %d", v0, v1)
	}
}

// TestResolverFencesHomeFirst: a coordinator that dies mid-prepare can leave
// one participant holding prepared writes for a gtid no one else saw. It is
// terminated by presumed abort -- but a participant other than the home
// lets go only after the home has durably recorded the abort, and the home
// aborting its own is that record. Either way the home holds a durable
// abort FENCE, so a still-live (zombie) coordinator that wakes up and
// drives its commit point cannot commit a transaction whose other
// participants already aborted (a permanent atomicity split).
func TestResolverFencesHomeFirst(t *testing.T) {
	for _, orphan := range []string{"participant", "home"} {
		t.Run(orphan, func(t *testing.T) {
			c := newCluster(t, 2, 61)
			keys := c.keysOnDistinctShards(1, 2)
			c.createBench(t, keys, 100)

			home := c.m.ShardOfInt(keys[0])
			gtid := wire.NewGTID(home, 0xfe, 1)
			key := keys[1]
			if orphan == "home" {
				key = keys[0]
			}

			// Hand-drive the dead coordinator's prepare on one node only.
			cl := c.client(t, c.m.ShardOfInt(key), nil)
			s, err := cl.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec("UPDATE bench SET val = 999 WHERE id = ?", core.I(key)); err != nil {
				t.Fatal(err)
			}
			if vote, err := s.TxnPrepare(gtid); err != nil || vote != wire.PreparedWrites {
				t.Fatalf("prepare on %s: vote %d err %v", orphan, vote, err)
			}

			// The orphan reads TxnUnknown at the home (or is the home),
			// presumes abort, and terminates.
			c.awaitTerminated(t)
			r := c.router(t, nil, nil)
			if v, _ := readVal(t, r, key); v != 100 {
				t.Fatalf("presume-aborted write leaked: %d", v)
			}

			// The fence: the home durably remembers the abort rather than
			// staying TxnUnknown...
			hcl := c.client(t, home, nil)
			hs, err := hcl.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer hs.Close()
			st, _, err := hs.TxnStatus(gtid)
			if err != nil {
				t.Fatal(err)
			}
			if st != wire.TxnAborted {
				t.Fatalf("home status after termination: %d, want durable abort fence", st)
			}
			// ...so the zombie coordinator's commit point fails at the home...
			if _, err := hs.TxnDecide(gtid, true); err == nil {
				t.Fatal("late commit decision slipped past the abort fence")
			}
			// ...and so does a late prepare reopening the terminated gtid.
			if err := hs.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, err := hs.Exec("UPDATE bench SET val = 5 WHERE id = ?", core.I(keys[0])); err != nil {
				t.Fatal(err)
			}
			if _, err := hs.TxnPrepare(gtid); err == nil {
				t.Fatal("late prepare slipped past the abort fence")
			}
		})
	}
}

// TestCommitForgetsEverywhere: after a clean distributed commit the live
// coordinator confirms the decision durable at every participant and prunes
// the 2PC bookkeeping cluster-wide -- every shard answers TxnUnknown, so the
// metadata (and the pinned log segments behind it) cannot accrete forever.
func TestCommitForgetsEverywhere(t *testing.T) {
	c := newCluster(t, 2, 62)
	keys := c.keysOnDistinctShards(1, 2)
	c.createBench(t, keys, 100)
	r := c.router(t, nil, nil)

	tx := r.Begin()
	for i, k := range keys {
		if _, err := tx.Exec(k, "UPDATE bench SET val = ? WHERE id = ?", core.I(int64(500+i)), core.I(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, _ := readVal(t, r, k); v != int64(500+i) {
			t.Fatalf("committed value on key %d: %d", k, v)
		}
	}
	for _, n := range c.nodes {
		if st, _ := n.engine.TxnStatus(tx.GTID()); st != core.TxnUnknown {
			t.Fatalf("shard %d retains 2PC state after confirmed commit: %v", n.id, st)
		}
	}
}
