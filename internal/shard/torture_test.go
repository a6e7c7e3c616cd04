package shard

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/core"
	"hiengine/internal/server"
	"hiengine/internal/wire"
)

// TestTwoPCTorture is the seeded 2PC chaos acceptance test: concurrent
// cross-shard transfers while participant nodes crash at the nastiest
// points of the protocol (mid decision-log write, after-durable-but-before
// -ack) and the coordinator dies, with a probability, in either phase-two
// window. Crashed nodes restart from durable state mid-load; afterwards no
// one resolves anything: the participants terminate what the dead
// coordinator left in doubt. The oracle: every writer stamps BOTH keys of
// its pair with the same value per transaction, so any divergence between
// the two keys of a pair is a cross-shard atomicity violation, and the
// surviving stamp must be exactly the newest transaction that actually
// committed (acked, or unknown-outcome later resolved committed by the home
// shard).
func TestTwoPCTorture(t *testing.T) {
	writers, rounds := 6, 40
	if testing.Short() {
		writers, rounds = 3, 12
	}
	c := newCluster(t, 3, 4242)

	// Each writer owns one cross-shard key pair.
	type pair struct{ a, b int64 }
	pairs := make([]pair, writers)
	next := int64(1)
	for w := range pairs {
		ks := c.keysOnDistinctShards(next, 2)
		pairs[w] = pair{ks[0], ks[1]}
		next = ks[1] + 1
	}
	var keys []int64
	for _, p := range pairs {
		keys = append(keys, p.a, p.b)
	}
	c.createBench(t, keys, 0) // stamp 0 = "no transaction ever applied"

	// Participant chaos: one crash apiece, at three distinct protocol
	// arrows. Crash latches the node's whole chaos engine, so everything on
	// that node fails until the monitor restarts it -- a process death.
	c.nodes[0].arm(chaos.Rule{Site: core.SiteDecideLog, Action: chaos.Crash, OnHit: 2})
	c.nodes[1].arm(chaos.Rule{Site: server.Site2PCAck, Action: chaos.Crash, OnHit: 2})
	c.nodes[2].arm(chaos.Rule{Site: core.SitePrepareLog, Action: chaos.Crash, OnHit: 3})

	// Coordinator chaos: seeded-random deaths in both phase-two windows.
	coordCh := chaos.New(987)
	coordCh.Arm(chaos.Rule{Site: SiteCoordDecide, Action: chaos.Fault, Prob: 0.04, Count: 2})
	coordCh.Arm(chaos.Rule{Site: SiteCoordFanout, Action: chaos.Fault, Prob: 0.04, Count: 2})
	r := c.router(t, coordCh, nil)

	// Crash monitor: notice a latched node, restart it from durable state.
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	var restarts atomic.Int64
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stopMon:
				return
			case <-time.After(time.Millisecond):
			}
			for _, n := range c.nodes {
				if n.ch.Crashed() {
					n.crash()
					n.restart(t)
					restarts.Add(1)
				}
			}
		}
	}()

	// Load: each writer transfers stamps onto its own pair, remembering
	// every acked stamp and every unknown-outcome gtid.
	type unknown struct {
		gtid  string
		stamp int64
	}
	type writerLog struct {
		acked    int64 // newest acked stamp (stamps only grow)
		unknowns []unknown
		fails    int
	}
	logs := make([]writerLog, writers)
	// Each acked commit's time in Commit: a bound on how long a live
	// coordinator leaves a participant in doubt.
	windows := make([][]time.Duration, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := pairs[w]
			for i := 1; i <= rounds; i++ {
				stamp := int64(w)*1_000_000 + int64(i)
				tx := r.Begin()
				_, err := tx.Exec(p.a, "UPDATE bench SET val = ? WHERE id = ?", core.I(stamp), core.I(p.a))
				if err == nil {
					_, err = tx.Exec(p.b, "UPDATE bench SET val = ? WHERE id = ?", core.I(stamp), core.I(p.b))
				}
				if err != nil {
					tx.Rollback()
					logs[w].fails++
					time.Sleep(2 * time.Millisecond)
					continue
				}
				t0 := time.Now()
				switch err := tx.Commit(); {
				case err == nil:
					logs[w].acked = stamp
					windows[w] = append(windows[w], time.Since(t0))
				case tx.GTID() != "":
					// The commit entered 2PC and died somewhere past
					// prepare: only the home shard knows the outcome.
					logs[w].unknowns = append(logs[w].unknowns, unknown{tx.GTID(), stamp})
					logs[w].fails++
					time.Sleep(2 * time.Millisecond)
				default:
					logs[w].fails++
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopMon)
	monWG.Wait()

	// From here no coordinator is left: the participants terminate every
	// gtid in doubt, and a node still latched restarts meanwhile.
	restarts.Add(int64(c.awaitTerminated(t)))
	r2 := c.router(t, nil, nil)

	// Settle every unknown outcome against the home shard's authoritative
	// answer, then check the oracle per pair.
	totalAcked, totalUnknown, resolvedCommit := 0, 0, 0
	for w := range logs {
		expect := logs[w].acked
		for _, u := range logs[w].unknowns {
			totalUnknown++
			home, err := wire.HomeShard(u.gtid)
			if err != nil {
				t.Fatal(err)
			}
			s, err := c.client(t, home, nil).Session()
			if err != nil {
				t.Fatal(err)
			}
			st, _, err := s.TxnStatus(u.gtid)
			s.Close()
			if err != nil {
				t.Fatalf("settling %s: %v", u.gtid, err)
			}
			if st == wire.TxnCommitted {
				resolvedCommit++
				if u.stamp > expect {
					expect = u.stamp
				}
			}
		}
		if logs[w].acked > 0 {
			totalAcked++
		}
		p := pairs[w]
		va, _ := readVal(t, r2, p.a)
		vb, _ := readVal(t, r2, p.b)
		if va != vb {
			t.Errorf("ATOMICITY VIOLATION writer %d: key %d=%d key %d=%d", w, p.a, va, p.b, vb)
		}
		if va != expect {
			t.Errorf("writer %d: final stamp %d, want %d (acked %d, %d unknowns)",
				w, va, expect, logs[w].acked, len(logs[w].unknowns))
		}
	}
	var all []time.Duration
	for _, ws := range windows {
		all = append(all, ws...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var p99 time.Duration
	if len(all) > 0 {
		p99 = all[len(all)*99/100]
	}
	t.Logf("torture: %d writers x %d rounds, %d node restarts, %d unknown outcomes (%d resolved commit), acked 2PC commit p99 %v",
		writers, rounds, restarts.Load(), totalUnknown, resolvedCommit, p99)
	if restarts.Load() == 0 {
		t.Error("no node ever crashed: the chaos rules did not exercise the protocol")
	}
}
