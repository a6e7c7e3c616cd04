package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hiengine/internal/raceflag"
	"hiengine/internal/srss"
)

func TestReplicaFollowsPrimary(t *testing.T) {
	primary := testEngine(t)
	tbl := mustTable(t, primary, usersSchema())
	for i := int64(0); i < 100; i++ {
		insertUser(t, primary, tbl, int(i%4), i, "v0", i)
	}
	if _, err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Spawn the replica from the primary's manifest.
	rep, stats, err := OpenReplica(Config{Service: primary.Service(), Workers: 4, SegmentSize: 1 << 20},
		primary.ManifestID(), RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if stats.CheckpointEntries == 0 {
		t.Fatal("replica recovery did not use the checkpoint")
	}
	rtbl, err := rep.Engine().Table("users")
	if err != nil {
		t.Fatal(err)
	}
	// Replica serves the recovered state.
	tx, err := rep.Engine().Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, row, err := tx.GetByKey(rtbl, 0, I(5)); err != nil || row[1].Str() != "v0" {
		t.Fatalf("replica read: %v %v", row, err)
	}
	// Writes are rejected.
	if _, err := tx.Insert(rtbl, Row{I(999), S("x"), I(0)}); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("replica insert: %v", err)
	}
	commit(t, tx)

	// Primary keeps writing: new inserts, updates (with key change on the
	// secondary index) and deletes.
	for i := int64(100); i < 150; i++ {
		insertUser(t, primary, tbl, int(i%4), i, "fresh", i)
	}
	for i := int64(0); i < 20; i++ {
		ptx, _ := primary.Begin(0)
		rid, _, err := ptx.GetByKey(tbl, 0, I(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ptx.Update(tbl, rid, Row{I(i), S("renamed"), I(i * 2)}); err != nil {
			t.Fatal(err)
		}
		commit(t, ptx)
	}
	ptx, _ := primary.Begin(0)
	rid, _, _ := ptx.GetByKey(tbl, 0, I(50))
	if err := ptx.Delete(tbl, rid); err != nil {
		t.Fatal(err)
	}
	commit(t, ptx)

	// Catch the replica up and verify every change arrived.
	applied, err := rep.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("catch-up applied nothing")
	}
	tx2, _ := rep.Engine().Begin(0)
	if _, row, err := tx2.GetByKey(rtbl, 0, I(120)); err != nil || row[1].Str() != "fresh" {
		t.Fatalf("replica missed insert: %v %v", row, err)
	}
	if _, row, err := tx2.GetByKey(rtbl, 0, I(3)); err != nil || row[1].Str() != "renamed" || row[2].Int() != 6 {
		t.Fatalf("replica missed update: %v %v", row, err)
	}
	if _, _, err := tx2.GetByKey(rtbl, 0, I(50)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("replica missed delete: %v", err)
	}
	// Secondary-index scan on the replica: renamed rows found under the
	// new key, not the old one (stale entries are verified away).
	renamed, stale := 0, 0
	tx2.ScanPrefix(rtbl, 1, []Value{S("renamed")}, func(_ RID, row Row) bool {
		renamed++
		return true
	})
	tx2.ScanPrefix(rtbl, 1, []Value{S("v0")}, func(_ RID, row Row) bool {
		if row[0].Int() < 20 {
			stale++
		}
		return true
	})
	if renamed != 20 {
		t.Fatalf("replica secondary scan found %d renamed rows, want 20", renamed)
	}
	if stale != 0 {
		t.Fatalf("replica served %d stale index entries", stale)
	}
	commit(t, tx2)

	// Idempotence: another catch-up with no new primary activity applies
	// nothing.
	applied, err = rep.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("idle catch-up applied %d records", applied)
	}
	if rep.AppliedCSN() == 0 {
		t.Fatal("replica has no freshness horizon")
	}
	// The live-row count follows inserts and deletes alike, and promotion
	// leaves it alone.
	if got, want := rtbl.LiveRows(), tbl.LiveRows(); got != want {
		t.Fatalf("replica LiveRows %d, primary %d", got, want)
	}
	if _, err := rep.Promote(0); err != nil {
		t.Fatal(err)
	}
	if got, want := rtbl.LiveRows(), tbl.LiveRows(); got != want {
		t.Fatalf("promoted replica LiveRows %d, primary %d", got, want)
	}
}

// openTestReplica opens a replica of primary over its SRSS service.
func openTestReplica(t *testing.T, primary *Engine) *Replica {
	t.Helper()
	rep, _, err := OpenReplica(Config{Service: primary.Service(), Workers: 4, SegmentSize: 1 << 20},
		primary.ManifestID(), RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	return rep
}

// catchUp runs one CatchUp and checks how many records it applied (want < 0:
// any number).
func catchUp(t *testing.T, rep *Replica, want int64) int64 {
	t.Helper()
	n, err := rep.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if want >= 0 && n != want {
		t.Fatalf("CatchUp applied %d records, want %d", n, want)
	}
	return n
}

// deleteAcrossStreams inserts row 7 on worker 9 and deletes it on worker 0:
// with the default 16 log streams the delete lies in a segment with a lower
// id than the insert's, so a scan in segment order meets it first.
func deleteAcrossStreams(t *testing.T, primary *Engine, tbl *Table) {
	t.Helper()
	rid := insertUser(t, primary, tbl, 9, 7, "doomed", 7)
	tx, err := primary.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tbl, rid); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
}

func assertOnlyKeep(t *testing.T, rep *Replica) {
	t.Helper()
	snap := snapshotTable(t, rep.Engine(), "users")
	if _, ok := snap[7]; ok || len(snap) != 1 {
		t.Fatalf("replica holds %v, want the keep row alone", snap)
	}
}

// TestReplicaDeleteNotResurrectedAtBootstrap: a replica opened after the
// delete resumes its first catch-up where its bootstrap replay stopped. A
// rescan from offset 0 met the delete again -- its row already cleared by
// recovery -- and then the insert, which came back.
func TestReplicaDeleteNotResurrectedAtBootstrap(t *testing.T) {
	primary := testEngine(t)
	tbl := mustTable(t, primary, usersSchema())
	insertUser(t, primary, tbl, 0, 1, "keep", 1)
	deleteAcrossStreams(t, primary, tbl)
	rep := openTestReplica(t, primary)
	n := catchUp(t, rep, -1)
	assertOnlyKeep(t, rep)
	if n != 0 {
		t.Fatalf("the first catch-up with nothing new applied %d records", n)
	}
}

// TestReplicaDeleteNotResurrectedLive: insert and delete ship in one pass,
// delete first. The delete marker stays on the row until GC after the pass,
// so the older insert loses to it.
func TestReplicaDeleteNotResurrectedLive(t *testing.T) {
	primary := testEngine(t)
	tbl := mustTable(t, primary, usersSchema())
	insertUser(t, primary, tbl, 0, 1, "keep", 1)
	rep := openTestReplica(t, primary)
	catchUp(t, rep, 0)
	deleteAcrossStreams(t, primary, tbl)
	catchUp(t, rep, -1)
	assertOnlyKeep(t, rep)
}

// TestReplicaSnapshotSurvivesCatchUp: a follower installs a shipped update on
// top of the chain, so a read transaction already running keeps the version
// it read; GC prunes the chain, and the old secondary key with it, once no
// snapshot needs them.
func TestReplicaSnapshotSurvivesCatchUp(t *testing.T) {
	primary := testEngine(t)
	tbl := mustTable(t, primary, usersSchema())
	rid := insertUser(t, primary, tbl, 0, 1, "v1", 1)
	rep := openTestReplica(t, primary)
	re := rep.Engine()
	rtbl, err := re.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	read := func(tx *Txn, want string) {
		t.Helper()
		if _, row, err := tx.GetByKey(rtbl, 0, I(1)); err != nil || row[1].Str() != want {
			t.Fatalf("replica read %v, %v; want %s", row, err, want)
		}
	}
	tx, err := re.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	read(tx, "v1")

	ptx, err := primary.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ptx.Update(tbl, rid, Row{I(1), S("v2"), I(2)}); err != nil {
		t.Fatal(err)
	}
	commit(t, ptx)
	catchUp(t, rep, 1)
	read(tx, "v1")
	commit(t, tx)
	fresh, err := re.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	read(fresh, "v2")
	commit(t, fresh)

	catchUp(t, rep, 0)
	if head := rtbl.rows.Get(rid); head == nil || head.next.Load() != nil {
		t.Fatal("the superseded version outlived every snapshot and a pass")
	}
	old := encodePrefix([]Value{S("v1")})
	stale := 0
	if err := rtbl.indexes[1].Scan(old, KeySuccessor(old), func([]byte, uint64) bool { stale++; return true }); err != nil {
		t.Fatal(err)
	}
	if stale != 0 {
		t.Fatalf("the renamed row's old secondary key still has %d index entries", stale)
	}
}

// TestReplicaStalledCommitIsNotApplied: a pass that stops at a record of a
// table the replica cannot see yet -- its manifest has migrated and the new
// one has not shipped -- does not count the record's CSN as applied, so a
// read-your-writes wait for that commit does not return before its row
// exists. Once the table is visible, the next pass applies the row.
func TestReplicaStalledCommitIsNotApplied(t *testing.T) {
	primary := testEngine(t)
	insertUser(t, primary, mustTable(t, primary, usersSchema()), 0, 1, "keep", 1)
	rep := openTestReplica(t, primary)
	catchUp(t, rep, 0)
	unshipped, err := primary.Service().Create(srss.TierCompute)
	if err != nil {
		t.Fatal(err)
	}
	rep.TrackManifest(unshipped.ID())

	s := usersSchema()
	s.Name = "later"
	later := mustTable(t, primary, s)
	tx, err := primary.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(later, Row{I(2), S("new"), I(2)}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	csn := tx.CSN()

	catchUp(t, rep, 0)
	if got := rep.AppliedCSN(); got >= csn {
		t.Fatalf("AppliedCSN %d after a pass stalled at CSN %d", got, csn)
	}
	rep.TrackManifest(primary.ManifestID())
	catchUp(t, rep, 1)
	if got := rep.AppliedCSN(); got < csn {
		t.Fatalf("AppliedCSN %d after the stalled commit %d applied", got, csn)
	}
	if snap := snapshotTable(t, rep.Engine(), "later"); snap[2][0] != "new" {
		t.Fatalf("replica holds %v, want the row of the stalled commit", snap)
	}
}

// TestReplicaStallRetriesTheWholeTransaction: a transaction whose second
// record names a table the replica cannot see yet stalls whole -- its first
// record, of a table the replica knows, is not applied either, and its CSN is
// not counted -- and is applied whole from its first record once the table is
// visible.
func TestReplicaStallRetriesTheWholeTransaction(t *testing.T) {
	primary := testEngine(t)
	users := mustTable(t, primary, usersSchema())
	insertUser(t, primary, users, 0, 1, "keep", 1)
	rep := openTestReplica(t, primary)
	catchUp(t, rep, 0)
	unshipped, err := primary.Service().Create(srss.TierCompute)
	if err != nil {
		t.Fatal(err)
	}
	rep.TrackManifest(unshipped.ID())

	s := usersSchema()
	s.Name = "later"
	later := mustTable(t, primary, s)
	tx := begin(t, primary, 0)
	if _, err := tx.Insert(users, Row{I(2), S("known-table"), I(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(later, Row{I(2), S("unknown-table"), I(2)}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	csn := tx.CSN()

	catchUp(t, rep, 0)
	if got := rep.AppliedCSN(); got >= csn {
		t.Fatalf("AppliedCSN %d after a pass stalled at CSN %d", got, csn)
	}
	rusers, err := rep.Engine().Table("users")
	if err != nil {
		t.Fatal(err)
	}
	if n := rusers.LiveRows(); n != 1 {
		t.Fatalf("the stalled transaction's first record was applied: users holds %d rows, want 1", n)
	}
	rep.TrackManifest(primary.ManifestID())
	catchUp(t, rep, 2)
	if got := rep.AppliedCSN(); got < csn {
		t.Fatalf("AppliedCSN %d after the stalled commit %d applied", got, csn)
	}
	if snap := snapshotTable(t, rep.Engine(), "users"); snap[2][0] != "known-table" || len(snap) != 2 {
		t.Fatalf("replica users hold %v, want the keep row and the stalled commit's", snap)
	}
	if snap := snapshotTable(t, rep.Engine(), "later"); snap[2][0] != "unknown-table" {
		t.Fatalf("replica holds %v in later, want the stalled commit's row", snap)
	}
}

// shipLog brings dst's copy of src's PLogs up to date, as log shipping does
// for a follower, except for the PLog named in cut, whose copy it brings up
// to the given offset only.
func shipLog(t *testing.T, src, dst *srss.Service, cut srss.PLogID, at int64) {
	t.Helper()
	for _, tier := range []srss.Tier{srss.TierCompute, srss.TierStorage} {
		for _, id := range src.List(tier) {
			p, err := src.Open(id)
			if err != nil {
				t.Fatal(err)
			}
			end := p.Size()
			if id == cut {
				end = at
			}
			q, err := dst.ImportPLog(id, tier)
			if err != nil {
				t.Fatal(err)
			}
			if q.Size() >= end {
				continue
			}
			b := make([]byte, end-q.Size())
			if _, err := p.ReadAt(b, q.Size()); err != nil {
				t.Fatal(err)
			}
			if _, err := q.Append(b); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReplicaNeverShowsPartOfATransaction: a follower's copy of the log,
// shipped in chunks that are not record-aligned, can end inside a
// transaction -- between two of its records, or inside one. CatchUp applies
// none of it and does not count its CSN, so no replica snapshot holds a
// prefix of it; once the rest arrives, all of it is applied.
func TestReplicaNeverShowsPartOfATransaction(t *testing.T) {
	const rows = 8
	for _, inside := range []bool{false, true} {
		primary := testEngine(t, func(c *Config) { c.LogStreams = 1 })
		users := mustTable(t, primary, usersSchema())
		insertUser(t, primary, users, 0, 0, "before", 0)
		follower := srss.New(srss.Config{})
		shipLog(t, primary.Service(), follower, srss.PLogID{}, 0)
		rep, _, err := OpenReplica(Config{Service: follower, Workers: 2}, primary.ManifestID(), RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()

		tx := begin(t, primary, 0)
		var rids []RID
		for i := int64(1); i <= rows; i++ {
			rid, err := tx.Insert(users, Row{I(i), S(fmt.Sprintf("row-%d", i)), I(i)})
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		commit(t, tx)
		csn := tx.CSN()
		// The copy ends at the transaction's fourth record, or 3 bytes into
		// its last.
		at := users.rows.Get(rids[3]).Addr()
		if inside {
			at = users.rows.Get(rids[rows-1]).Addr().Add(3)
		}
		seg, ok := primary.Log().Directory().Lookup(at.Segment())
		if !ok {
			t.Fatal("the transaction's segment is not in the directory")
		}
		shipLog(t, primary.Service(), follower, seg, int64(at.Offset()))

		catchUp(t, rep, 0)
		if got := rep.AppliedCSN(); got >= csn {
			t.Fatalf("inside=%v: AppliedCSN %d with part of CSN %d shipped", inside, got, csn)
		}
		rusers, err := rep.Engine().Table("users")
		if err != nil {
			t.Fatal(err)
		}
		if n, snap := rusers.LiveRows(), snapshotTable(t, rep.Engine(), "users"); n != 1 || len(snap) != 1 {
			t.Fatalf("inside=%v: the replica holds %d rows, shows %v, with part of a transaction shipped; want the one before it", inside, n, snap)
		}

		shipLog(t, primary.Service(), follower, srss.PLogID{}, 0)
		catchUp(t, rep, rows)
		if got := rep.AppliedCSN(); got < csn {
			t.Fatalf("inside=%v: AppliedCSN %d after the rest of CSN %d arrived", inside, got, csn)
		}
		if snap := snapshotTable(t, rep.Engine(), "users"); len(snap) != rows+1 {
			t.Fatalf("inside=%v: the replica shows %d rows once the transaction arrived, want %d", inside, len(snap), rows+1)
		}
	}
}

// pend2pcLen is how many gtids the engine remembers.
func pend2pcLen(e *Engine) int {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	return len(e.pend2pc)
}

// TestTwoPCMatcher runs every interleaving of a gtid's prepare (worker 1's
// stream), decision and forget (worker 0's) through both drivers of the one
// log applier -- Recover over the finished log, and a replica following it as
// it is written, then promoted -- and holds both to what the primary knows:
// the gtid's status, the in-doubt list, the visible rows, how many gtids are
// remembered. The replica meets the records in its bootstrap replay, in one
// live pass (the decision before the prepare, in segment order) or one pass
// per record; with ckpt a checkpoint follows the records, which fences the
// prepare's segment once the gtid is decided.
func TestTwoPCMatcher(t *testing.T) {
	const gtid = "h0-matcher"
	for _, steps := range []string{"P", "PC", "PA", "PCF", "PAF", "A", "AF"} {
		for _, sched := range []string{"bootstrap", "one pass", "pass per record"} {
			for _, ckpt := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/ckpt=%v", steps, sched, ckpt), func(t *testing.T) {
					primary := testEngine(t)
					tbl := mustTable(t, primary, usersSchema())
					insertUser(t, primary, tbl, 0, 1, "base", 1)
					var rep *Replica
					if sched != "bootstrap" {
						rep = openTestReplica(t, primary)
					}
					for _, s := range steps {
						switch s {
						case 'P':
							tx, _ := primary.Begin(1)
							if _, err := tx.Insert(tbl, Row{I(10), S("twopc"), I(10)}); err != nil {
								t.Fatal(err)
							}
							prepare(t, tx, gtid)
						case 'C', 'A':
							resolve(t, primary, gtid, s == 'C')
						case 'F':
							forget(t, primary, gtid)
						}
						if sched == "pass per record" {
							catchUp(t, rep, -1)
						}
					}
					if ckpt {
						if _, err := primary.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
					if rep == nil {
						rep = openTestReplica(t, primary)
					}
					catchUp(t, rep, -1)

					type state struct {
						status  TxnState
						inDoubt string
						rows    string
						pend    int
					}
					of := func(e *Engine) state {
						st, _ := e.TxnStatus(gtid)
						return state{st, fmt.Sprint(e.InDoubt()), fmt.Sprint(snapshotTable(t, e, "users")), pend2pcLen(e)}
					}
					want := of(primary)
					recovered, _ := recoverEngine(t, primary, RecoverOptions{ReplayThreads: 2})
					if got := of(recovered); got != want {
						t.Errorf("Recover: %+v, the primary %+v", got, want)
					}
					if _, err := rep.Promote(0); err != nil {
						t.Fatal(err)
					}
					if got := of(rep.Engine()); got != want {
						t.Errorf("replica after Promote: %+v, the primary %+v", got, want)
					}
				})
			}
		}
	}
}

func TestReplicaSeesSegmentsCreatedAfterSpawn(t *testing.T) {
	primary := testEngine(t, func(c *Config) { c.SegmentSize = 4096 })
	tbl := mustTable(t, primary, usersSchema())
	insertUser(t, primary, tbl, 0, 0, "seed", 0)

	rep, _, err := OpenReplica(Config{Service: primary.Service(), Workers: 2, SegmentSize: 4096},
		primary.ManifestID(), RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// Enough traffic to rotate into brand-new segments the replica's
	// directory snapshot has never seen.
	for i := int64(1); i < 200; i++ {
		insertUser(t, primary, tbl, 0, i, fmt.Sprintf("gen-%d", i), i)
	}
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	rtbl, _ := rep.Engine().Table("users")
	tx, _ := rep.Engine().Begin(0)
	n := 0
	tx.ScanKey(rtbl, 0, nil, nil, func(RID, Row) bool { n++; return true })
	commit(t, tx)
	if n != 200 {
		t.Fatalf("replica sees %d rows, want 200", n)
	}
}

// TestReplicaTwoPCDecideBeforePrepare is the scan-order contract for 2PC on
// a live follower. Decisions (and forgets) ride worker 0's log stream while
// prepares ride the session worker's stream, and CatchUp scans segments in
// ascending id order -- so with the prepare on worker 1, a single pass
// consumes the DECISION before the PREPARE. The follower must still apply a
// committed gtid's writes (not strand them buffered forever), must not
// resurrect the decided gtid as in-doubt at promotion, and must honor a
// forget that also outran the prepare.
func TestReplicaTwoPCDecideBeforePrepare(t *testing.T) {
	primary := testEngine(t)
	tbl := mustTable(t, primary, usersSchema())
	insertUser(t, primary, tbl, 0, 1, "base", 1)

	rep, _, err := OpenReplica(Config{Service: primary.Service(), Workers: 4, SegmentSize: 1 << 20},
		primary.ManifestID(), RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}

	// Committed cross-shard write: prepare on worker 1, decide on worker 0.
	txC, _ := primary.Begin(1)
	if _, err := txC.Insert(tbl, Row{I(10), S("committed"), I(10)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, txC, "h0-ooo-commit")
	wantCSN := resolve(t, primary, "h0-ooo-commit", true)

	// Aborted one: prepare on worker 2, decide on worker 0.
	txA, _ := primary.Begin(2)
	if _, err := txA.Insert(tbl, Row{I(11), S("aborted"), I(11)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, txA, "h0-ooo-abort")
	resolve(t, primary, "h0-ooo-abort", false)

	// Committed AND forgotten before the follower sees any of it: the pass
	// scans decide, then forget (both worker 0), then the prepare (worker 3)
	// -- the forget must defer until the prepare is accounted for, then
	// still apply the writes and drop the entry.
	txF, _ := primary.Begin(3)
	if _, err := txF.Insert(tbl, Row{I(12), S("forgotten"), I(12)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, txF, "h0-ooo-forget")
	resolve(t, primary, "h0-ooo-forget", true)
	forget(t, primary, "h0-ooo-forget")

	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	re := rep.Engine()
	snap := snapshotTable(t, re, "users")
	if snap[10][1].(int64) != 10 {
		t.Fatalf("follower missed a committed 2PC write it saw decide-first: %v", snap)
	}
	if _, ok := snap[11]; ok {
		t.Fatalf("follower applied an aborted 2PC write: %v", snap)
	}
	if snap[12][1].(int64) != 12 {
		t.Fatalf("follower missed a committed+forgotten 2PC write: %v", snap)
	}
	if st, csn := re.TxnStatus("h0-ooo-commit"); st != TxnCommitted || csn != wantCSN {
		t.Fatalf("follower status for decided commit: %v csn=%d want %d", st, csn, wantCSN)
	}
	if st, _ := re.TxnStatus("h0-ooo-abort"); st != TxnAborted {
		t.Fatalf("follower status for decided abort: %v", st)
	}
	if st, _ := re.TxnStatus("h0-ooo-forget"); st != TxnUnknown {
		t.Fatalf("forgotten gtid retained on follower: %v", st)
	}
	if len(rep.pendPrep) != 0 {
		t.Fatalf("prepares stranded in pendPrep: %v", rep.pendPrep)
	}
	if len(rep.pendForget) != 0 {
		t.Fatalf("forgets stranded in pendForget: %v", rep.pendForget)
	}

	// Promotion must not resurrect decided gtids as in-doubt (the old bug:
	// the stranded pendPrep entry overwrote the decided one and a recovery
	// sweep would presume-abort a client-acked commit).
	if _, err := rep.Promote(0); err != nil {
		t.Fatal(err)
	}
	if got := re.InDoubt(); len(got) != 0 {
		t.Fatalf("promotion resurrected decided gtids as in-doubt: %v", got)
	}
	if st, _ := re.TxnStatus("h0-ooo-commit"); st != TxnCommitted {
		t.Fatalf("promoted follower lost a commit decision: %v", st)
	}
	snap = snapshotTable(t, re, "users")
	if snap[10][1].(int64) != 10 || snap[12][1].(int64) != 12 {
		t.Fatalf("promoted follower lost committed 2PC writes: %v", snap)
	}
}

// TestReplicaTwoPCPrepareThenDecide covers the opposite interleaving across
// two passes: the prepare ships (and buffers) in one CatchUp, the decision
// and a later forget arrive in subsequent passes.
func TestReplicaTwoPCPrepareThenDecide(t *testing.T) {
	primary := testEngine(t)
	tbl := mustTable(t, primary, usersSchema())
	insertUser(t, primary, tbl, 0, 1, "base", 1)

	rep, _, err := OpenReplica(Config{Service: primary.Service(), Workers: 4, SegmentSize: 1 << 20},
		primary.ManifestID(), RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	tx, _ := primary.Begin(1)
	if _, err := tx.Insert(tbl, Row{I(20), S("staged"), I(20)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, tx, "h0-seq")
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if len(rep.pendPrep) != 1 {
		t.Fatalf("undecided prepare not buffered: %v", rep.pendPrep)
	}
	re := rep.Engine()
	if snap := snapshotTable(t, re, "users"); len(snap) != 1 {
		t.Fatalf("undecided prepare visible on follower: %v", snap)
	}

	resolve(t, primary, "h0-seq", true)
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	snap := snapshotTable(t, re, "users")
	if snap[20][1].(int64) != 20 {
		t.Fatalf("decision did not release the buffered prepare: %v", snap)
	}
	if st, _ := re.TxnStatus("h0-seq"); st != TxnCommitted {
		t.Fatalf("follower status: %v", st)
	}

	forget(t, primary, "h0-seq")
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if st, _ := re.TxnStatus("h0-seq"); st != TxnUnknown {
		t.Fatalf("forget did not prune on follower: %v", st)
	}
	if snap := snapshotTable(t, re, "users"); snap[20][1].(int64) != 20 {
		t.Fatalf("forget regressed follower data: %v", snap)
	}
}

// BenchmarkFollowerCatchUp times one CatchUp over a shipped log of 4096
// updates, GC after the pass included: what a follower spends per record, as
// ns/record. "same-keys" updates change no index key, "new-name" changes the
// secondary one.
func BenchmarkFollowerCatchUp(b *testing.B) {
	for _, tc := range []struct{ name, prefix string }{{"same-keys", "name"}, {"new-name", "renamed"}} {
		b.Run(tc.name, func(b *testing.B) { benchFollowerCatchUp(b, tc.prefix) })
	}
}

func benchFollowerCatchUp(b *testing.B, prefix string) {
	const rows = 4096
	var total time.Duration
	for i := 0; i < b.N; i++ {
		primary, err := Open(Config{Workers: 16, SegmentSize: 1 << 20, GCEveryNCommits: 4})
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := primary.CreateTable(usersSchema())
		if err != nil {
			b.Fatal(err)
		}
		write := func(fn func(tx *Txn, id int64) error) {
			for j := int64(0); j < rows; j += 128 {
				tx, _ := primary.Begin(0)
				for id := j; id < j+128; id++ {
					if err := fn(tx, id); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		}
		rids := make([]RID, rows)
		write(func(tx *Txn, id int64) (err error) {
			rids[id], err = tx.Insert(tbl, Row{I(id), S(fmt.Sprintf("name-%06d", id)), I(id)})
			return err
		})
		rep, _, err := OpenReplica(Config{Service: primary.Service(), Workers: 4, SegmentSize: 1 << 20},
			primary.ManifestID(), RecoverOptions{ReplayThreads: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rep.CatchUp(); err != nil {
			b.Fatal(err)
		}
		write(func(tx *Txn, id int64) error {
			return tx.Update(tbl, rids[id], Row{I(id), S(fmt.Sprintf("%s-%06d", prefix, id)), I(id + 1)})
		})
		start := time.Now()
		n, err := rep.CatchUp()
		total += time.Since(start)
		if err != nil || n != rows {
			b.Fatalf("CatchUp applied %d records, %v; want %d", n, err, rows)
		}
		rep.Close()
		primary.Close()
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*rows), "ns/record")
}

// TestFollowerApplyAllocs pins what a live follower allocates for each
// shipped record it applies, at the measured figure: the version stub, the
// secondary index's ART leaf and the bytes of its key (name + RID goes on
// past its slot and is longer than a leaf holds inline; the int primary key
// is a word in its slot), plus the indexes' inner nodes amortised = 3.31
// (4.40 with a leaf per primary key). Nothing per record for the catalog
// lookup, the row walker or the index-key buffer, which live on the Replica:
// with a map, a RowView and a key buffer made per record this read 10.40.
func TestFollowerApplyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	primary := testEngine(t, func(c *Config) { c.GCEveryNCommits = -1 })
	tbl := mustTable(t, primary, usersSchema()) // two indexes
	rep, _, err := OpenReplica(Config{Service: primary.Service(), Workers: 2}, primary.ManifestID(), RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	const records = 4096
	for i := int64(0); i < records; i += 128 {
		tx, err := primary.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		for j := i; j < i+128; j++ {
			if _, err := tx.Insert(tbl, Row{I(j), S(fmt.Sprintf("name-%06d", j)), I(j * 3)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	applied, err := rep.CatchUp()
	runtime.ReadMemStats(&after)
	if err != nil || applied != records {
		t.Fatalf("CatchUp applied %d records, %v; want %d", applied, err, records)
	}
	per := float64(after.Mallocs-before.Mallocs) / records
	t.Logf("%.3f allocations per applied record", per)
	if per > 3.4 {
		t.Errorf("a follower allocates %.3f times per applied record, want <= 3.4", per)
	}
}
