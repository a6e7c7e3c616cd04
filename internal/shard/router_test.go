package shard

import (
	"errors"
	"net"
	"strings"
	"testing"

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
	g := NewGTID(2, 0xabc, 7)
	home, err := HomeShard(g)
	if err != nil || home != 2 {
		t.Fatalf("HomeShard(%q) = %d, %v", g, home, err)
	}
	for _, bad := range []string{"", "x1.2.3", "h.1.2", "hx.1.2"} {
		if _, err := HomeShard(bad); err == nil {
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
	if home, err := HomeShard(tx.GTID()); err != nil || home != c.m.ShardOfInt(keys[0]) {
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
		_, err := r.Exec(keys[0], "UPDATE bench SET val = 1 WHERE id = ?", core.I(keys[0]))
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
		_, err := r.Exec(keys[0], "UPDATE bench SET val = 1 WHERE id = ?", core.I(keys[0]))
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
		if _, err := r.Exec(keys[0], "UPDATE bench SET val = 1 WHERE id = ?", core.I(keys[0])); err != nil {
			t.Fatal(err)
		}
		c.nodes[c.m.ShardOfInt(keys[0])].crash()
		_, err = r.Exec(keys[0], "UPDATE bench SET val = 2 WHERE id = ?", core.I(keys[0]))
		if !errors.Is(err, client.ErrNoPrimary) {
			t.Fatalf("dead-shard write through router: %v", err)
		}
		// The sibling shard keeps serving through the same router.
		if _, err := r.Exec(keys[1], "UPDATE bench SET val = 3 WHERE id = ?", core.I(keys[1])); err != nil {
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
	if r.Map().N() != 3 {
		t.Fatalf("bootstrapped map: %+v", r.Map())
	}
	if v, ok := readVal(t, r, keys[1]); !ok || v != 100 {
		t.Fatalf("bootstrapped read: %d %v", v, ok)
	}
}

// TestRecoverAfterCoordinatorCrash covers both phase-two crash windows:
// before the home decision (recovery must abort everywhere) and after it
// (recovery must complete the commit fan-out).
func TestRecoverAfterCoordinatorCrash(t *testing.T) {
	for _, window := range []struct {
		site       string
		wantCommit bool
	}{
		{SiteCoordDecide, false},
		{SiteCoordFanout, true},
	} {
		t.Run(window.site, func(t *testing.T) {
			c := newCluster(t, 2, 31)
			keys := c.keysOnDistinctShards(1, 2)
			c.createBench(t, keys, 100)

			coordCh := chaos.New(99)
			coordCh.Arm(chaos.Rule{Site: window.site, Action: chaos.Fault, OnHit: 1})
			r := c.router(t, coordCh, nil)

			tx := r.Begin()
			for i, k := range keys {
				if _, err := tx.Exec(k, "UPDATE bench SET val = ? WHERE id = ?", core.I(int64(200+i)), core.I(k)); err != nil {
					t.Fatal(err)
				}
			}
			err := tx.Commit()
			if err == nil {
				t.Fatal("commit survived an injected coordinator crash")
			}
			if !strings.Contains(err.Error(), tx.GTID()) {
				t.Fatalf("crash error does not name the gtid: %v", err)
			}

			// Some participant is now in-doubt, holding its write locks.
			total := 0
			for _, n := range c.nodes {
				total += len(n.engine.InDoubt())
			}
			if total == 0 {
				t.Fatal("no participant left in-doubt by the crash")
			}

			// A fresh resolver (the restarted coordinator) repairs the
			// cluster from the shards' own in-doubt lists.
			r2 := c.router(t, nil, nil)
			rep, err := r2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rep.InDoubt == 0 {
				t.Fatal("resolver saw no in-doubt transactions")
			}
			if window.wantCommit && rep.Committed == 0 {
				t.Fatalf("post-commit-point crash resolved as abort: %+v", rep)
			}
			if !window.wantCommit && rep.Aborted == 0 {
				t.Fatalf("pre-commit-point crash resolved as commit: %+v", rep)
			}
			for _, n := range c.nodes {
				if got := n.engine.InDoubt(); len(got) != 0 {
					t.Fatalf("shard %d still in-doubt: %v", n.id, got)
				}
			}
			// Atomicity: both updates or neither.
			v0, _ := readVal(t, r2, keys[0])
			v1, _ := readVal(t, r2, keys[1])
			if window.wantCommit {
				if v0 != 200 || v1 != 201 {
					t.Fatalf("committed transfer incomplete: %d %d", v0, v1)
				}
			} else if v0 != 100 || v1 != 100 {
				t.Fatalf("aborted transfer leaked: %d %d", v0, v1)
			}
		})
	}
}

// TestRecoverAcrossParticipantRestart: a participant that crashes between
// prepare and decision restarts with the transaction in-doubt (write locks
// re-held) and still resolves.
func TestRecoverAcrossParticipantRestart(t *testing.T) {
	c := newCluster(t, 2, 41)
	keys := c.keysOnDistinctShards(1, 2)
	c.createBench(t, keys, 100)

	coordCh := chaos.New(77)
	coordCh.Arm(chaos.Rule{Site: SiteCoordFanout, Action: chaos.Fault, OnHit: 1})
	r := c.router(t, coordCh, nil)

	tx := r.Begin()
	for i, k := range keys {
		if _, err := tx.Exec(k, "UPDATE bench SET val = ? WHERE id = ?", core.I(int64(300+i)), core.I(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit survived the fan-out crash")
	}

	// Crash and restart the non-home participant while it is in-doubt.
	home, err := HomeShard(tx.GTID())
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

	r2 := c.router(t, nil, nil)
	rep, err := r2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != 1 {
		t.Fatalf("recovery report: %+v", rep)
	}
	v0, _ := readVal(t, r2, keys[0])
	v1, _ := readVal(t, r2, keys[1])
	if v0 != 300 || v1 != 301 {
		t.Fatalf("committed transfer incomplete after restart: %d %d", v0, v1)
	}
}

// TestResolverFencesHomeFirst: a coordinator that dies mid-prepare can leave
// a participant holding prepared writes for a gtid the home shard never saw.
// The resolver presumes abort -- but before aborting anyone it must install a
// durable abort fence AT THE HOME, so a still-live (zombie) coordinator that
// wakes up and drives its commit point cannot commit a transaction whose
// other participants the sweep just aborted (a permanent atomicity split).
func TestResolverFencesHomeFirst(t *testing.T) {
	c := newCluster(t, 2, 61)
	keys := c.keysOnDistinctShards(1, 2)
	c.createBench(t, keys, 100)

	home := c.m.ShardOfInt(keys[0])
	part := c.m.ShardOfInt(keys[1])
	gtid := NewGTID(home, 0xfe, 1)

	// Hand-drive the dead coordinator's prepare on the participant only.
	cl := c.client(t, part, nil)
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE bench SET val = 999 WHERE id = ?", core.I(keys[1])); err != nil {
		t.Fatal(err)
	}
	if vote, err := s.TxnPrepare(gtid); err != nil || vote != wire.PreparedWrites {
		t.Fatalf("prepare on participant: vote %d err %v", vote, err)
	}

	// The sweep finds the orphan, reads TxnUnknown at the home, presumes
	// abort, and resolves it.
	r := c.router(t, nil, nil)
	rep, err := r.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.InDoubt != 1 || rep.Aborted != 1 {
		t.Fatalf("recovery report: %+v", rep)
	}
	if v, _ := readVal(t, r, keys[1]); v != 100 {
		t.Fatalf("presume-aborted write leaked: %d", v)
	}

	// The fence: the home durably remembers the abort rather than staying
	// TxnUnknown...
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
		t.Fatalf("home status after sweep: %d, want durable abort fence", st)
	}
	// ...so the zombie coordinator's commit point fails at the home...
	if _, err := hs.TxnDecide(gtid, true); err == nil {
		t.Fatal("late commit decision slipped past the abort fence")
	}
	// ...and so does a late prepare reopening the swept gtid.
	if err := hs.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Exec("UPDATE bench SET val = 5 WHERE id = ?", core.I(keys[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.TxnPrepare(gtid); err == nil {
		t.Fatal("late prepare slipped past the abort fence")
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
