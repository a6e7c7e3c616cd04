package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// TestTornTailRecovery injects a torn replicated write into the final log
// append, crashes the engine, and verifies recovery truncates the invalid
// tail and replays every acknowledged commit.
func TestTornTailRecovery(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ch := chaos.New(seed)
		svc := srss.New(srss.Config{ComputeNodes: 5, Chaos: ch})
		e, err := Open(Config{Name: "torn-test", Service: svc, Workers: 2, LogStreams: 1, SegmentSize: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		tbl := mustTable(t, e, usersSchema())
		for i := int64(0); i < 50; i++ {
			insertUser(t, e, tbl, int(i%2), i, "acked", i)
		}
		want := snapshotTable(t, e, "users")

		// Arm the tear for the very next replicated append: the commit's
		// group append is half-replicated when the "process" dies.
		ch.Arm(chaos.Rule{Site: srss.SiteAppendTear, Action: chaos.Tear,
			OnHit: ch.Hits(srss.SiteAppendTear) + 1})
		tx, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert(tbl, Row{I(999), S("torn"), I(0)}); err != nil {
			t.Fatal(err)
		}
		if cerr := tx.Commit(); !errors.Is(cerr, chaos.ErrCrashed) {
			t.Fatalf("seed %d: torn commit error = %v, want ErrCrashed", seed, cerr)
		}
		if !e.DurabilityLost() {
			t.Fatalf("seed %d: torn commit did not latch fail-stop", seed)
		}
		e.Close()

		// Restart: clear the crash latch and recover.
		ch.ClearCrash()
		ch.Disarm(srss.SiteAppendTear)
		e2, stats, err := RecoverByName(Config{Name: "torn-test", Service: svc, Workers: 2, LogStreams: 1, SegmentSize: 1 << 16},
			RecoverOptions{ReplayThreads: 2})
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		if stats.TornTails != 1 || stats.TruncatedBytes <= 0 {
			t.Fatalf("seed %d: recovery stats %+v, want 1 torn tail with >0 bytes", seed, stats)
		}
		got := snapshotTable(t, e2, "users")
		if len(got) != len(want) {
			t.Fatalf("seed %d: recovered %d rows, want %d", seed, len(got), len(want))
		}
		for id, w := range want {
			if got[id] != w {
				t.Fatalf("seed %d: row %d: got %v want %v", seed, id, got[id], w)
			}
		}
		// The torn row was never acknowledged; it must not resurrect.
		if _, ok := got[999]; ok {
			t.Fatalf("seed %d: unacknowledged torn insert resurrected", seed)
		}
		// Writable after recovery.
		tbl2, _ := e2.Table("users")
		tx2, err := e2.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx2.Insert(tbl2, Row{I(1000), S("post-recovery"), I(1)}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx2)
		e2.Close()
	}
}

// TestTornTransactionIsAllOrNothing: the append of an 8-insert transaction is
// torn at a seeded point -- inside a record, or between two -- and recovery
// brings back all of its rows or none. Recovering the records before the cut
// would commit part of a transaction nobody acknowledged.
func TestTornTransactionIsAllOrNothing(t *testing.T) {
	cfg := Config{Name: "torn-txn", Workers: 1, LogStreams: 1}
	const rows = 8
	partial := 0
	for seed := uint64(1); seed <= 200; seed++ {
		ch := chaos.New(seed)
		cfg.Service = srss.New(srss.Config{ComputeNodes: 5, Chaos: ch})
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tbl := mustTable(t, e, usersSchema())
		ch.Arm(chaos.Rule{Site: srss.SiteAppendTear, Action: chaos.Tear, Prob: 1})
		tx := begin(t, e, 0)
		for i := int64(0); i < rows; i++ {
			if _, err := tx.Insert(tbl, Row{I(i), S(fmt.Sprintf("row-%d", i)), I(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); !errors.Is(err, chaos.ErrCrashed) {
			t.Fatalf("seed %d: torn commit: %v, want ErrCrashed", seed, err)
		}
		ch.Disarm(srss.SiteAppendTear)
		ch.ClearCrash()
		e.Close()
		rec, _, err := RecoverByName(cfg, RecoverOptions{ReplayThreads: 2})
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		rtbl, err := rec.Table("users")
		if err != nil {
			t.Fatal(err)
		}
		if n := rtbl.LiveRows(); n != 0 && n != rows {
			partial++
			t.Errorf("seed %d: recovered %d of the torn transaction's %d rows", seed, n, rows)
		}
		rec.Close()
	}
	if partial > 0 {
		t.Errorf("%d of 200 torn transactions recovered in part", partial)
	}
}

// TestMissingTrailerFailsRecovery: a transaction that ends its segment
// without the CSN after its last record, on a segment sealed untorn with its
// replicas in agreement, is no crash's tail but corruption: recovery fails
// with wal.ErrCorrupt rather than replaying the log without it.
func TestMissingTrailerFailsRecovery(t *testing.T) {
	cfg := Config{Name: "no-trailer", Workers: 1, LogStreams: 1, Service: srss.New(srss.Config{})}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "kept", 1)
	segs := e.Log().Segments()
	id, _ := e.Log().Directory().Lookup(segs[len(segs)-1])
	e.Close()
	p, err := cfg.Service.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	buf, off := wal.AppendRecord(nil, wal.OpInsert, tbl.ID, 2, EncodeRow(nil, Row{I(2), S("unstamped"), I(2)}))
	buf[off] |= 0x20 // the end mark, without StampTxn's CSN after it
	if _, err := p.Append(buf); err != nil {
		t.Fatal(err)
	}
	p.Seal()
	if rec, _, err := RecoverByName(cfg, RecoverOptions{ReplayThreads: 2}); !errors.Is(err, wal.ErrCorrupt) {
		if err == nil {
			rec.Close()
		}
		t.Fatalf("recover over a transaction without its CSN: %v, want wal.ErrCorrupt", err)
	}
}

// TestCommitBeginCrashSite: a crash at the head of the commit pipeline
// aborts cleanly -- nothing visible, nothing logged, no fail-stop.
func TestCommitBeginCrashSite(t *testing.T) {
	ch := chaos.New(3)
	svc := srss.New(srss.Config{Chaos: ch})
	e, err := Open(Config{Name: "cb-test", Service: svc, Workers: 2, LogStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "before", 1)

	ch.Arm(chaos.Rule{Site: SiteCommitBegin, Action: chaos.Crash,
		OnHit: ch.Hits(SiteCommitBegin) + 1})
	tx, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tbl, Row{I(2), S("crashed"), I(2)}); err != nil {
		t.Fatal(err)
	}
	if cerr := tx.Commit(); !errors.Is(cerr, chaos.ErrCrashed) {
		t.Fatalf("commit error = %v, want ErrCrashed", cerr)
	}
	if e.DurabilityLost() {
		t.Fatal("commit-begin crash latched fail-stop; nothing diverged")
	}
	ch.ClearCrash()
	// The aborted row is invisible; the engine keeps working.
	got := snapshotTable(t, e, "users")
	if len(got) != 1 {
		t.Fatalf("%d rows visible, want 1", len(got))
	}
	insertUser(t, e, tbl, 0, 3, "after", 3)
}

// TestCommitDrawnDelaySite: a Delay armed between the CSN draw and the log
// append is hit once per commit that writes, and holds no commit back from
// durability: every one is acknowledged, and recovery returns it.
func TestCommitDrawnDelaySite(t *testing.T) {
	ch := chaos.New(5)
	svc := srss.New(srss.Config{Chaos: ch})
	cfg := Config{Name: "drawn-test", Service: svc, Workers: 2, LogStreams: 2}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustTable(t, e, usersSchema())
	ch.Arm(chaos.Rule{Site: SiteCommitDrawn, Action: chaos.Delay, Prob: 1, Delay: 200 * time.Microsecond})
	hits := ch.Hits(SiteCommitDrawn)
	const perWorker = 20
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				tx, err := e.Begin(w)
				if err == nil {
					_, err = tx.Insert(tbl, Row{I(int64(w*perWorker + i)), S("drawn"), I(int64(i))})
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	tx := begin(t, e, 0)
	if _, _, err := tx.GetByKey(tbl, 0, I(0)); err != nil {
		t.Fatal(err)
	}
	commit(t, tx) // read-only: no CSN drawn
	if got := ch.Hits(SiteCommitDrawn) - hits; got != 2*perWorker {
		t.Fatalf("the site was hit %d times by %d commits", got, 2*perWorker)
	}
	if e.DurabilityLost() {
		t.Fatal("a delayed commit lost durability")
	}
	ch.Disarm(SiteCommitDrawn)
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	if got := snapshotTable(t, e2, "users"); len(got) != 2*perWorker {
		t.Fatalf("recovered %d of %d delayed commits", len(got), 2*perWorker)
	}
}

// TestCheckpointMidCrashSite: a crash between checkpoint flushes fails the
// checkpoint; the previous checkpoint stays the recovery anchor and a
// post-restart checkpoint succeeds.
func TestCheckpointMidCrashSite(t *testing.T) {
	ch := chaos.New(4)
	svc := srss.New(srss.Config{Chaos: ch})
	e, err := Open(Config{Name: "ckpt-test", Service: svc, Workers: 2, LogStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := mustTable(t, e, usersSchema())
	// Enough rows for at least three 64 KiB image flushes at ~5 bytes an
	// entry, so that the site is reached twice.
	const rows, perTxn = 60_000, 100
	for i := int64(0); i < rows; i += perTxn {
		tx := begin(t, e, int(i/perTxn%2))
		for j := i; j < i+perTxn; j++ {
			if _, err := tx.Insert(tbl, Row{I(j), S("row-payload-for-checkpoint-size"), I(j)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
	}
	hits := ch.Hits(SiteCheckpointMid)
	first, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	if n := ch.Hits(SiteCheckpointMid) - hits; n < 2 {
		t.Fatalf("the checkpoint reached %s %d times, want >= 2: its image no longer spans three flushes", SiteCheckpointMid, n)
	}
	ch.Arm(chaos.Rule{Site: SiteCheckpointMid, Action: chaos.Crash,
		OnHit: ch.Hits(SiteCheckpointMid) + 1})
	if _, err := e.Checkpoint(); !errors.Is(err, chaos.ErrCrashed) || ch.Fired(SiteCheckpointMid) != 1 {
		t.Fatalf("mid-crash checkpoint error = %v, %d crashes at %s", err, ch.Fired(SiteCheckpointMid), SiteCheckpointMid)
	}
	if e.LastCheckpointCSN() != first {
		t.Fatalf("failed checkpoint advanced the anchor: %d != %d", e.LastCheckpointCSN(), first)
	}
	ch.ClearCrash()
	insertUser(t, e, tbl, 0, rows, "after-crash", 1)
	second, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after restart: %v", err)
	}
	if second <= first {
		t.Fatalf("second checkpoint CSN %d <= first %d", second, first)
	}
}

// TestWalGiveupLatchesFailStop: when the whole compute tier is down, the
// bounded WAL retry gives up and the engine fail-stops with an error
// wrapping srss.ErrNoHealthyNodes.
func TestWalGiveupLatchesFailStop(t *testing.T) {
	svc := srss.New(srss.Config{ComputeNodes: 3})
	e, err := Open(Config{Name: "giveup-test", Service: svc, Workers: 2, LogStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "pre", 1)
	for i := 0; i < 3; i++ {
		svc.ComputeNode(i).Fail()
	}
	tx, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tbl, Row{I(2), S("doomed"), I(2)}); err != nil {
		t.Fatal(err)
	}
	cerr := tx.Commit()
	if !errors.Is(cerr, srss.ErrNoHealthyNodes) {
		t.Fatalf("commit with tier down: %v, want wrapped ErrNoHealthyNodes", cerr)
	}
	if !e.DurabilityLost() {
		t.Fatal("WAL giveup did not latch the fail-stop flag")
	}
	if _, err := e.Begin(0); !errors.Is(err, ErrDurabilityLost) {
		t.Fatalf("Begin after giveup: %v, want ErrDurabilityLost", err)
	}
}
