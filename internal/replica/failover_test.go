package replica_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/node"
	"hiengine/internal/obs"
	"hiengine/internal/replica"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// failoverNode is a primary restartable at a fixed address (the
// crash/restart primitive of the torture harness).
type failoverNode struct {
	*node.Node
	engine *core.Engine
	addr   string
}

// startFailoverPrimary runs a primary whose log layout keeps the shipped
// watermark prefix-exact: one WAL stream and segments large enough that
// the run never rotates, so "applied CSN w" means every commit <= w was
// applied (multi-stream shipping interleaves segments in map order and
// only guarantees eventual completeness, not a prefix cut).
func startFailoverPrimary(t *testing.T) *failoverNode {
	t.Helper()
	engine, err := core.Open(core.Config{
		Service:     srss.New(srss.Config{Model: delay.Zero()}),
		Workers:     4,
		LogStreams:  1,
		SegmentSize: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := serveNode(t, engine, node.Config{DrainTimeout: 500 * time.Millisecond})
	return &failoverNode{Node: n, engine: engine, addr: n.Addr()}
}

// kill stops the node's wire server (the engine object survives, playing
// the role of the crashed process's durable state).
func (n *failoverNode) kill() { n.Stop() }

// revive serves the killed node again at its old address.
func (n *failoverNode) revive(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Serve(ln); err != nil {
		t.Fatal(err)
	}
}

// startChaosReplica bootstraps a follower of primaryAddr whose local
// service carries the armed chaos engine, serving it behind a node. Chaos
// is armed by the caller after bootstrap (so the initial mirror itself
// cannot be torn by the harness).
func startChaosReplica(t *testing.T, primaryAddr string, ch *chaos.Engine) (*replica.Follower, *node.Node) {
	t.Helper()
	reg := obs.NewRegistry("failover-replica")
	f, rep, err := replica.Bootstrap(primaryAddr, core.Config{
		Service: srss.New(srss.Config{Model: delay.Zero(), Chaos: ch}),
		Workers: 4,
		Obs:     reg,
	}, core.RecoverOptions{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	return f, serveNode(t, rep.Engine(), node.Config{
		Follower: f, PrimaryAddr: primaryAddr, Poll: 2 * time.Millisecond,
	})
}

// ackedWrite is one client-acknowledged commit: the oracle's unit.
type ackedWrite struct {
	key uint64
	csn uint64
	// postPromote is true when the write STARTED after promotion
	// completed: it can only have been acked by the new lineage, so it
	// must be readable there regardless of the promoted watermark.
	postPromote bool
}

// failoverWriter hammers autocommit inserts through a pooled failover
// client, recording every acknowledged commit and its CSN.
type failoverWriter struct {
	cl   *client.Client
	id   uint64
	mu   sync.Mutex
	acks []ackedWrite
}

func (w *failoverWriter) run(stop *atomic.Bool, phase *atomic.Uint64) {
	for seq := uint64(0); !stop.Load(); seq++ {
		key := w.id*1_000_000 + seq
		startedPhase := phase.Load()
		_, err := w.cl.Exec("INSERT INTO kv VALUES (?, ?)",
			core.I(int64(key)), core.S(fmt.Sprintf("w%d-%d", w.id, seq)))
		if err != nil {
			continue // the failover window; the oracle counts acks only
		}
		w.mu.Lock()
		w.acks = append(w.acks, ackedWrite{
			key: key, csn: w.cl.LastCSN(), postPromote: startedPhase == 1,
		})
		w.mu.Unlock()
	}
}

func (w *failoverWriter) ackCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.acks)
}

func (w *failoverWriter) postPromoteAcks() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, a := range w.acks {
		if a.postPromote {
			n++
		}
	}
	return n
}

// TestFailoverTorture is the failover acceptance oracle, run across many
// chaos seeds: kill the primary under concurrent client writes, promote
// the follower (with chaos tearing ship fetches, failing applies, and
// failing promotion mid-step), restart the old primary at its old
// address, and verify
//
//   - zero acked-commit loss below the promoted watermark: every write a
//     client saw acknowledged with CSN <= the watermark is readable on
//     the new primary, as is every write acked by the new lineage;
//   - zero dual-primary writes: the revived old primary commits nothing
//     after the kill -- it demotes (fenced) and refuses writes with the
//     stale-epoch code;
//   - pooled clients reconverge on the promoted node with no
//     reconfiguration.
func TestFailoverTorture(t *testing.T) {
	const seeds = 20
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tortureOneSeed(t, seed)
		})
	}
}

func tortureOneSeed(t *testing.T, seed uint64) {
	primary := startFailoverPrimary(t)
	seedCl, err := client.New(client.Options{Addr: primary.addr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedCl.Exec("CREATE TABLE kv (k INT, v TEXT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	seedCl.Close()

	ch := chaos.New(seed)
	follower, standby := startChaosReplica(t, primary.addr, ch)
	replicaAddr := standby.Addr()
	// Armed after bootstrap: tear shipping fetches and fail apply passes
	// throughout the run, and fail promotion itself up to twice.
	ch.Arm(chaos.Rule{Site: replica.SiteShipFetch, Action: chaos.Fault, Prob: 0.05})
	ch.Arm(chaos.Rule{Site: replica.SiteApply, Action: chaos.Fault, Prob: 0.05})
	// The first promotion attempt always fails mid-step (OnHit), so every
	// seed exercises the promote-retry path.
	ch.Arm(chaos.Rule{Site: replica.SitePromote, Action: chaos.Fault, OnHit: 1})

	// Writers: pooled failover clients hammering unique-key inserts.
	const nWriters = 3
	var (
		stop    atomic.Bool
		phase   atomic.Uint64 // 0 = old lineage, 1 = promotion done
		wg      sync.WaitGroup
		writers [nWriters]*failoverWriter
	)
	for i := range writers {
		cl, err := client.New(client.Options{
			Addr:            primary.addr,
			ReplicaAddrs:    []string{replicaAddr},
			DialTimeout:     500 * time.Millisecond,
			RequestTimeout:  2 * time.Second,
			MaxRetries:      2,
			FailoverRetries: 12,
			FailoverBase:    5 * time.Millisecond,
			FailoverMax:     100 * time.Millisecond,
			Seed:            seed*100 + uint64(i) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		writers[i] = &failoverWriter{cl: cl, id: uint64(i)}
		wg.Add(1)
		go func(w *failoverWriter) {
			defer wg.Done()
			w.run(&stop, &phase)
		}(writers[i])
	}

	// Phase 0: accumulate acked traffic on the old lineage.
	waitFor(t, 10*time.Second, "pre-kill acks", func() bool {
		total := 0
		for _, w := range writers {
			total += w.ackCount()
		}
		return total >= 30
	})

	// Kill the primary mid-traffic, then promote the follower. Promotion
	// retries through injected replica.promote faults.
	primary.kill()
	var epoch uint64
	for attempt := 0; ; attempt++ {
		if epoch, err = standby.Promote(); err == nil {
			break
		}
		if attempt > 10 {
			t.Fatalf("promote never succeeded: %v", err)
		}
	}
	if want := uint64(2); epoch != want {
		t.Fatalf("promoted epoch = %d, want %d", epoch, want)
	}
	watermark := follower.AppliedCSN()
	phase.Store(1)

	// Clients must reconverge on the promoted node without
	// reconfiguration: every writer acks new traffic against it.
	waitFor(t, 15*time.Second, "client reconvergence", func() bool {
		for _, w := range writers {
			if w.postPromoteAcks() == 0 {
				return false
			}
		}
		return true
	})
	for _, w := range writers {
		if got := w.cl.PrimaryAddr(); got != replicaAddr {
			t.Fatalf("writer still pointed at %s, want promoted %s", got, replicaAddr)
		}
	}

	// Revive the old primary at its old address. The promoted node's
	// fencer (and client probes) must demote it before it commits
	// anything.
	oldCommits := primary.engine.Obs().Counter("core.commits").Load()
	primary.revive(t)
	waitFor(t, 10*time.Second, "old primary fenced", func() bool {
		return primary.engine.Fenced()
	})

	// A client talking straight to the revived node gets the stale-epoch
	// refusal, not a hung or acked write.
	staleCl, err := client.New(client.Options{Addr: primary.addr})
	if err != nil {
		t.Fatal(err)
	}
	_, err = staleCl.Exec("INSERT INTO kv VALUES (?, ?)", core.I(999_999_999), core.S("stale"))
	staleCl.Close()
	if !errors.Is(err, core.ErrStaleEpoch) {
		t.Fatalf("write on revived old primary: %v, want ErrStaleEpoch", err)
	}
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeStaleEpoch {
		t.Fatalf("write on revived old primary: %v, want CodeStaleEpoch", err)
	}

	stop.Store(true)
	wg.Wait()

	// Oracle 1: no acked commit below the promoted watermark is lost, and
	// nothing acked by the new lineage is lost.
	oracle, err := client.New(client.Options{Addr: replicaAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	checked := 0
	for _, w := range writers {
		w.mu.Lock()
		acks := append([]ackedWrite(nil), w.acks...)
		w.mu.Unlock()
		for _, a := range acks {
			if a.csn > watermark && !a.postPromote {
				continue // acked by the old lineage above the shipped horizon
			}
			res, err := oracle.Exec("SELECT v FROM kv WHERE k = ?", core.I(int64(a.key)))
			if err != nil {
				t.Fatalf("oracle read key %d (csn %d): %v", a.key, a.csn, err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("acked write lost: key %d csn %d (watermark %d, postPromote %v)",
					a.key, a.csn, watermark, a.postPromote)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("oracle checked zero acked writes")
	}

	// Oracle 2: the old primary acked nothing after the kill.
	if got := primary.engine.Obs().Counter("core.commits").Load(); got != oldCommits {
		t.Fatalf("dual-primary writes: old primary commits went %d -> %d after kill", oldCommits, got)
	}

	// The promotion chaos site must have actually fired this seed's
	// armed faults (the harness exercised the retry path).
	if ch.Fired(replica.SitePromote) == 0 {
		t.Fatalf("replica.promote chaos site never fired")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClientFallbackAllReplicasDown: with every replica endpoint dead,
// read routing falls back to the primary transparently.
func TestClientFallbackAllReplicasDown(t *testing.T) {
	engine, primaryAddr := startPrimary(t)
	_ = engine
	// Two dead endpoints: reserve ports, then close the listeners.
	var dead []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead = append(dead, ln.Addr().String())
		ln.Close()
	}
	cl, err := client.New(client.Options{
		Addr:         primaryAddr,
		ReplicaAddrs: dead,
		DialTimeout:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("CREATE TABLE fb (k INT, v TEXT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO fb VALUES (?, ?)", core.I(1), core.S("one")); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec("SELECT v FROM fb WHERE k = ?", core.I(1))
	if err != nil {
		t.Fatalf("read with all replicas down: %v, want primary fallback", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("read with all replicas down: %d rows, want 1", len(res.Rows))
	}
}

// TestClientGreetingRediscovery: a client configured with a stale
// primary address finds the real primary by following the PrimaryAddr
// hint in a replica's greeting -- the address-change half of failover,
// with no promotion involved.
func TestClientGreetingRediscovery(t *testing.T) {
	engine, primaryAddr := startPrimary(t)
	_ = engine
	seedCl, err := client.New(client.Options{Addr: primaryAddr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedCl.Exec("CREATE TABLE move (k INT, v TEXT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	seedCl.Close()
	_, _, replicaAddr := startReplica(t, primaryAddr)

	// A dead "old" primary address: the cluster moved, the client's
	// config did not. Only the replica endpoint still answers, and its
	// greeting names the real primary (absent from the client's config).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	staleAddr := ln.Addr().String()
	ln.Close()

	cl, err := client.New(client.Options{
		Addr:            staleAddr,
		ReplicaAddrs:    []string{replicaAddr},
		DialTimeout:     250 * time.Millisecond,
		FailoverRetries: 6,
		FailoverBase:    5 * time.Millisecond,
		FailoverMax:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("INSERT INTO move VALUES (?, ?)", core.I(7), core.S("found")); err != nil {
		t.Fatalf("write via greeting rediscovery: %v", err)
	}
	if got := cl.PrimaryAddr(); got != primaryAddr {
		t.Fatalf("client adopted %s, want greeting-named primary %s", got, primaryAddr)
	}
}

// TestPromoteServesPostBootstrapTables: tables created on the primary
// AFTER the replica bootstrapped reach the replica only through replay --
// the engine catalog advances but the SQL frontend's does not. Without
// catalog re-sync a promoted node is writable yet blind to every table
// younger than its bootstrap. The node re-syncs at its poll interval and
// once more inside Promote; the test calls no sync function.
func TestPromoteServesPostBootstrapTables(t *testing.T) {
	primary := startFailoverPrimary(t)
	seedCl, err := client.New(client.Options{Addr: primary.addr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedCl.Exec("CREATE TABLE pre (k INT, v TEXT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}

	follower, standby := startChaosReplica(t, primary.addr, chaos.New(1))

	// The cluster's schema keeps moving after the replica joined.
	if _, err := seedCl.Exec("CREATE TABLE post (k INT, v TEXT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	if _, err := seedCl.Exec("INSERT INTO post VALUES (1, 'late')"); err != nil {
		t.Fatal(err)
	}
	lastCSN := seedCl.LastCSN()
	seedCl.Close()
	waitFor(t, 10*time.Second, "replica caught up past the late DDL", func() bool {
		return follower.AppliedCSN() >= lastCSN
	})

	primary.kill()
	if _, err := standby.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}

	cl, err := client.New(client.Options{Addr: standby.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Both the bootstrap-era and the post-bootstrap table must accept
	// writes and serve reads on the promoted node.
	if _, err := cl.Exec("INSERT INTO post VALUES (2, 'after')"); err != nil {
		t.Fatalf("write to post-bootstrap table on promoted node: %v", err)
	}
	if _, err := cl.Exec("INSERT INTO pre VALUES (1, 'after')"); err != nil {
		t.Fatalf("write to bootstrap-era table on promoted node: %v", err)
	}
	res, err := cl.Exec("SELECT v FROM post WHERE k = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != "late" {
		t.Fatalf("replayed row on promoted node: rows=%v err=%v", res, err)
	}
}
