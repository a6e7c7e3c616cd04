package core

import (
	"errors"
	"fmt"
	"testing"
)

// prepare is a test helper: runs Prepare and fails the test on error.
func prepare(t *testing.T, tx *Txn, gtid string) {
	t.Helper()
	ro, err := tx.Prepare(gtid)
	if err != nil {
		t.Fatalf("prepare %s: %v", gtid, err)
	}
	if ro {
		t.Fatalf("prepare %s: unexpected read-only vote", gtid)
	}
}

func resolve(t *testing.T, e *Engine, gtid string, commit bool) uint64 {
	t.Helper()
	csn, err := resolveWait(e, gtid, commit)
	if err != nil {
		t.Fatalf("resolve %s: %v", gtid, err)
	}
	return csn
}

// resolveWait delivers a 2PC decision and waits for it to be durable and
// applied; it returns the decision's CSN (0 for an abort).
func resolveWait(e *Engine, gtid string, commit bool) (uint64, error) {
	type res struct {
		csn uint64
		err error
	}
	ch := make(chan res, 1)
	if err := e.Resolve(gtid, commit, func(csn uint64, err error) { ch <- res{csn, err} }); err != nil {
		return 0, err
	}
	r := <-ch
	return r.csn, r.err
}

func TestPrepareCommitVisibility(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "alice", 100)

	tx, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	rid, _, err := tx.GetByKey(tbl, 0, I(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, rid, Row{I(1), S("alice"), I(150)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tbl, Row{I(2), S("bob"), I(50)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, tx, "h0-t1")

	// Prepared writes are invisible and hold their locks.
	snap := snapshotTable(t, e, "users")
	if snap[1][1].(int64) != 100 {
		t.Fatalf("prepared update visible early: %v", snap[1])
	}
	if _, ok := snap[2]; ok {
		t.Fatal("prepared insert visible early")
	}
	tx2, _ := e.Begin(1)
	rid2, _, err := tx2.GetByKey(tbl, 0, I(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Update(tbl, rid2, Row{I(1), S("alice"), I(999)}); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting write on prepared row: err=%v", err)
	}
	// The prepared txn refuses local commit/abort.
	if err := tx.Abort(); !errors.Is(err, ErrInDoubt) {
		t.Fatalf("abort of prepared txn: %v", err)
	}
	if st, _ := e.TxnStatus("h0-t1"); st != TxnInDoubt {
		t.Fatalf("status before decision: %v", st)
	}
	if got := e.InDoubt(); len(got) != 1 || got[0] != "h0-t1" {
		t.Fatalf("in-doubt list: %v", got)
	}

	csn := resolve(t, e, "h0-t1", true)
	if csn == 0 {
		t.Fatal("commit decision returned CSN 0")
	}
	snap = snapshotTable(t, e, "users")
	if snap[1][1].(int64) != 150 || snap[2][1].(int64) != 50 {
		t.Fatalf("committed writes not visible: %v", snap)
	}
	if st, gotCSN := e.TxnStatus("h0-t1"); st != TxnCommitted || gotCSN != csn {
		t.Fatalf("status after commit: %v csn=%d want %d", st, gotCSN, csn)
	}
	// Idempotent re-delivery; conflicting decision rejected.
	if got := resolve(t, e, "h0-t1", true); got != csn {
		t.Fatalf("re-delivered commit csn %d != %d", got, csn)
	}
	if err := e.Resolve("h0-t1", false, func(uint64, error) {}); !errors.Is(err, ErrConflictingDecision) {
		t.Fatalf("conflicting decision: %v", err)
	}
}

func TestPrepareAbortUninstalls(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "alice", 100)

	tx, _ := e.Begin(0)
	rid, _, err := tx.GetByKey(tbl, 0, I(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tbl, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tbl, Row{I(3), S("carol"), I(7)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, tx, "h0-t2")
	if csn := resolve(t, e, "h0-t2", false); csn != 0 {
		t.Fatalf("abort decision returned csn %d", csn)
	}
	snap := snapshotTable(t, e, "users")
	if snap[1][1].(int64) != 100 {
		t.Fatalf("aborted delete leaked: %v", snap)
	}
	if _, ok := snap[3]; ok {
		t.Fatal("aborted insert leaked")
	}
	// The lock is released: a new writer succeeds.
	tx2, _ := e.Begin(1)
	rid2, _, err := tx2.GetByKey(tbl, 0, I(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Update(tbl, rid2, Row{I(1), S("alice"), I(101)}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx2)
	if st, _ := e.TxnStatus("h0-t2"); st != TxnAborted {
		t.Fatalf("status after abort: %v", st)
	}
	// Presumed abort: aborting an unknown gtid installs a durable FENCE --
	// after it, the gtid answers TxnAborted, a late commit decision is
	// rejected as conflicting, and a late prepare under the same gtid fails.
	if csn := resolve(t, e, "nope", false); csn != 0 {
		t.Fatalf("presumed abort of unknown gtid returned csn %d", csn)
	}
	if st, _ := e.TxnStatus("nope"); st != TxnAborted {
		t.Fatalf("status after unknown-gtid abort fence: %v", st)
	}
	if err := e.Resolve("nope", true, func(uint64, error) {}); !errors.Is(err, ErrConflictingDecision) {
		t.Fatalf("late commit against abort fence: %v", err)
	}
	tx3, _ := e.Begin(0)
	if _, err := tx3.Insert(tbl, Row{I(4), S("dave"), I(4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Prepare("nope"); err == nil {
		t.Fatal("late prepare under a fenced gtid succeeded")
	}
	// Committing a NEVER-seen gtid still fails loudly.
	if err := e.Resolve("fresh", true, func(uint64, error) {}); !errors.Is(err, ErrUnknownGTID) {
		t.Fatalf("commit of unknown gtid: %v", err)
	}
}

func TestReadOnlyPrepareVotes(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "alice", 100)
	tx, _ := e.Begin(0)
	if _, _, err := tx.GetByKey(tbl, 0, I(1)); err != nil {
		t.Fatal(err)
	}
	ro, err := tx.Prepare("h0-ro")
	if err != nil || !ro {
		t.Fatalf("read-only prepare: ro=%v err=%v", ro, err)
	}
	// No decision owed; the gtid is unknown.
	if st, _ := e.TxnStatus("h0-ro"); st != TxnUnknown {
		t.Fatalf("read-only prepare left state: %v", st)
	}
}

// TestInDoubtSurvivesRecovery is the core crash-window contract: a prepare
// with no decision recovers as an in-doubt transaction that still holds its
// write locks and still resolves either way.
func TestInDoubtSurvivesRecovery(t *testing.T) {
	for _, decide := range []string{"commit", "abort"} {
		t.Run(decide, func(t *testing.T) {
			e := testEngine(t)
			tbl := mustTable(t, e, usersSchema())
			insertUser(t, e, tbl, 0, 1, "alice", 100)
			insertUser(t, e, tbl, 0, 2, "bob", 200)

			tx, _ := e.Begin(0)
			rid, _, err := tx.GetByKey(tbl, 0, I(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Update(tbl, rid, Row{I(1), S("alice"), I(111)}); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Insert(tbl, Row{I(9), S("ivan"), I(9)}); err != nil {
				t.Fatal(err)
			}
			rid2, _, err := tx.GetByKey(tbl, 0, I(2))
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Delete(tbl, rid2); err != nil {
				t.Fatal(err)
			}
			prepare(t, tx, "h0-crash")

			e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
			if stats.InDoubt != 1 {
				t.Fatalf("recovered in-doubt count: %d", stats.InDoubt)
			}
			if got := e2.InDoubt(); len(got) != 1 || got[0] != "h0-crash" {
				t.Fatalf("in-doubt after recovery: %v", got)
			}
			// Locks are held again.
			snap := snapshotTable(t, e2, "users")
			if snap[1][1].(int64) != 100 || snap[2][1].(int64) != 200 {
				t.Fatalf("in-doubt writes leaked after recovery: %v", snap)
			}
			tx2, _ := e2.Begin(1)
			tblv, err := e2.Table("users")
			if err != nil {
				t.Fatal(err)
			}
			ridB, _, err := tx2.GetByKey(tblv, 0, I(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := tx2.Update(tblv, ridB, Row{I(1), S("alice"), I(777)}); !errors.Is(err, ErrConflict) {
				t.Fatalf("in-doubt lock not held after recovery: %v", err)
			}

			wantCommit := decide == "commit"
			csn := resolve(t, e2, "h0-crash", wantCommit)
			snap = snapshotTable(t, e2, "users")
			if wantCommit {
				if csn == 0 {
					t.Fatal("commit csn 0")
				}
				if snap[1][1].(int64) != 111 || snap[9][1].(int64) != 9 {
					t.Fatalf("commit after recovery not applied: %v", snap)
				}
				if _, ok := snap[2]; ok {
					t.Fatalf("committed delete not applied: %v", snap)
				}
			} else {
				if snap[1][1].(int64) != 100 || snap[2][1].(int64) != 200 {
					t.Fatalf("abort after recovery leaked writes: %v", snap)
				}
				if _, ok := snap[9]; ok {
					t.Fatal("aborted insert leaked after recovery")
				}
			}

			// The decision itself survives ANOTHER crash.
			e3, _ := recoverEngine(t, e2, RecoverOptions{ReplayThreads: 2})
			st, gotCSN := e3.TxnStatus("h0-crash")
			if wantCommit && (st != TxnCommitted || gotCSN != csn) {
				t.Fatalf("decision lost across second recovery: %v csn=%d want %d", st, gotCSN, csn)
			}
			if !wantCommit && st != TxnAborted {
				t.Fatalf("abort decision lost across second recovery: %v", st)
			}
			snap3 := snapshotTable(t, e3, "users")
			if fmt.Sprint(snap3) != fmt.Sprint(snap) {
				t.Fatalf("state diverged across second recovery:\n  %v\n  %v", snap3, snap)
			}
		})
	}
}

// forget is a test helper: runs Forget and waits for record durability.
func forget(t *testing.T, e *Engine, gtid string) {
	t.Helper()
	if err := forgetWait(e, gtid); err != nil {
		t.Fatalf("forget %s: %v", gtid, err)
	}
}

// forgetWait logs a Forget for gtid and waits for it to be durable.
func forgetWait(e *Engine, gtid string) error {
	ch := make(chan error, 1)
	if err := e.Forget(gtid, func(err error) { ch <- err }); err != nil {
		return err
	}
	return <-ch
}

// TestConcurrentDuplicatePrepare: the gtid is reserved atomically with the
// duplicate check, so two prepares under one gtid can never both pass --
// regardless of interleaving -- and the loser's transaction aborts cleanly
// (its write locks release).
func TestConcurrentDuplicatePrepare(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())

	txA, _ := e.Begin(0)
	if _, err := txA.Insert(tbl, Row{I(1), S("a"), I(1)}); err != nil {
		t.Fatal(err)
	}
	txB, _ := e.Begin(1)
	if _, err := txB.Insert(tbl, Row{I(2), S("b"), I(2)}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, tx := range []*Txn{txA, txB} {
		go func(tx *Txn) {
			_, err := tx.Prepare("h0-dup")
			errs <- err
		}(tx)
	}
	var failed, succeeded int
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			failed++
		} else {
			succeeded++
		}
	}
	if succeeded != 1 || failed != 1 {
		t.Fatalf("duplicate prepare: %d succeeded, %d failed; want exactly one each", succeeded, failed)
	}
	// Exactly one prepared transaction exists, and the loser's lock is gone:
	// a new writer can touch both keys' tables freely (the loser's insert
	// was uninstalled).
	if got := e.InDoubt(); len(got) != 1 || got[0] != "h0-dup" {
		t.Fatalf("in-doubt after duplicate prepare: %v", got)
	}
	resolve(t, e, "h0-dup", false)
	snap := snapshotTable(t, e, "users")
	if len(snap) != 0 {
		t.Fatalf("aborted duplicate-prepare writes leaked: %v", snap)
	}
}

// TestForgetPrunesDecided: Forget drops a decided gtid's bookkeeping (the
// participant answers TxnUnknown afterwards), refuses undecided gtids, and
// no-ops on unknown ones. The forget is logged, so it holds across recovery
// -- while the forgotten transaction's committed DATA does not regress.
func TestForgetPrunesDecided(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())

	tx, _ := e.Begin(0)
	if _, err := tx.Insert(tbl, Row{I(1), S("alice"), I(100)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, tx, "h0-f1")
	csn := resolve(t, e, "h0-f1", true)
	if csn == 0 {
		t.Fatal("commit csn 0")
	}

	// Undecided gtids refuse to be forgotten.
	tx2, _ := e.Begin(1)
	if _, err := tx2.Insert(tbl, Row{I(2), S("bob"), I(2)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, tx2, "h0-f2")
	if err := e.Forget("h0-f2", func(error) {}); !errors.Is(err, ErrInDoubt) {
		t.Fatalf("forget of undecided gtid: %v", err)
	}

	// Unknown gtids are a no-op.
	done := false
	if err := e.Forget("never-seen", func(err error) { done = err == nil }); err != nil || !done {
		t.Fatalf("forget of unknown gtid: err=%v done=%v", err, done)
	}

	forget(t, e, "h0-f1")
	if st, _ := e.TxnStatus("h0-f1"); st != TxnUnknown {
		t.Fatalf("status after forget: %v", st)
	}
	if snap := snapshotTable(t, e, "users"); snap[1][1].(int64) != 100 {
		t.Fatalf("forget touched committed data: %v", snap)
	}

	// The forget record replays: the gtid stays forgotten across recovery,
	// the committed writes still apply, and the undecided one is still owed
	// a decision.
	e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	if st, _ := e2.TxnStatus("h0-f1"); st != TxnUnknown {
		t.Fatalf("forgotten gtid resurrected by recovery: %v", st)
	}
	if snap := snapshotTable(t, e2, "users"); snap[1][1].(int64) != 100 {
		t.Fatalf("forgotten txn's committed data lost in recovery: %v", snap)
	}
	if stats.InDoubt != 1 {
		t.Fatalf("recovered in-doubt count: %d", stats.InDoubt)
	}
	resolve(t, e2, "h0-f2", true)
	forget(t, e2, "h0-f2")

	// With everything forgotten, a checkpoint fences the whole log; another
	// recovery anchors on the image alone and loses nothing.
	if _, err := e2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e3, _ := recoverEngine(t, e2, RecoverOptions{ReplayThreads: 2})
	snap := snapshotTable(t, e3, "users")
	if snap[1][1].(int64) != 100 || snap[2][1].(int64) != 2 {
		t.Fatalf("data lost after forget+checkpoint recovery: %v", snap)
	}
	if st, _ := e3.TxnStatus("h0-f1"); st != TxnUnknown {
		t.Fatalf("forgotten gtid resurrected after checkpoint: %v", st)
	}
	if got := e3.InDoubt(); len(got) != 0 {
		t.Fatalf("in-doubt after everything decided and forgotten: %v", got)
	}
}

// TestTwoPCAcrossCheckpoint: a checkpoint taken after the decision must
// cover (or fence correctly around) 2PC writes, and an undecided prepare must
// survive a checkpoint + recovery cycle. The decided row is updated before the
// checkpoint: recovery replays the retained write at its decision CSN, and
// the image's newer version of the row must win over it.
func TestTwoPCAcrossCheckpoint(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "alice", 100)

	// One committed, one in-doubt, then checkpoint, then crash.
	tx, _ := e.Begin(0)
	if _, err := tx.Insert(tbl, Row{I(10), S("pre"), I(10)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, tx, "h0-done")
	resolve(t, e, "h0-done", true)
	updateUsers(t, e, tbl, []int64{10}, 20)

	tx2, _ := e.Begin(1)
	if _, err := tx2.Insert(tbl, Row{I(11), S("pending"), I(11)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, tx2, "h0-open")

	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More traffic after the checkpoint.
	insertUser(t, e, tbl, 2, 12, "post", 12)

	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	snap := snapshotTable(t, e2, "users")
	if snap[10][1].(int64) != 20 || snap[12][1].(int64) != 12 {
		t.Fatalf("checkpointed 2PC commit or its update lost: %v", snap)
	}
	if _, ok := snap[11]; ok {
		t.Fatal("undecided prepare visible after recovery")
	}
	if st, _ := e2.TxnStatus("h0-done"); st != TxnCommitted {
		t.Fatalf("decided status lost across checkpointed recovery: %v", st)
	}
	if got := e2.InDoubt(); len(got) != 1 || got[0] != "h0-open" {
		t.Fatalf("in-doubt across checkpoint: %v", got)
	}
	resolve(t, e2, "h0-open", true)
	snap = snapshotTable(t, e2, "users")
	if snap[11][1].(int64) != 11 {
		t.Fatalf("late commit not applied: %v", snap)
	}
}
