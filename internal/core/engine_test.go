package core

import (
	"errors"
	"fmt"
	"testing"
)

// usersSchema is the standard test table: id (pk), name, balance, plus a
// non-unique secondary index on name.
func usersSchema() *Schema {
	return &Schema{
		Name: "users",
		Columns: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "name", Kind: KindString},
			{Name: "balance", Kind: KindInt},
		},
		Indexes: []IndexDef{
			{Name: "pk", Columns: []int{0}, Unique: true},
			{Name: "by_name", Columns: []int{1}, Unique: false},
		},
	}
}

func testEngine(t *testing.T, mut ...func(*Config)) *Engine {
	t.Helper()
	cfg := Config{Workers: 16, SegmentSize: 1 << 20, GCEveryNCommits: 4}
	for _, m := range mut {
		m(&cfg)
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func mustTable(t *testing.T, e *Engine, s *Schema) *Table {
	t.Helper()
	tbl, err := e.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func commit(t *testing.T, tx *Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func insertUser(t *testing.T, e *Engine, tbl *Table, worker int, id int64, name string, bal int64) RID {
	t.Helper()
	tx, err := e.Begin(worker)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tx.Insert(tbl, Row{I(id), S(name), I(bal)})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	commit(t, tx)
	return rid
}

func TestCreateTableValidation(t *testing.T) {
	e := testEngine(t)
	if _, err := e.CreateTable(&Schema{Name: "bad"}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := e.CreateTable(&Schema{
		Name:    "bad2",
		Columns: []Column{{Name: "a", Kind: KindInt}},
		Indexes: []IndexDef{{Name: "pk", Columns: []int{0}, Unique: false}},
	}); err == nil {
		t.Fatal("non-unique primary accepted")
	}
	mustTable(t, e, usersSchema())
	if _, err := e.CreateTable(usersSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := e.Table("users"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Table("ghost"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("ghost lookup: %v", err)
	}
}

func TestInsertGetByRIDAndKey(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 100)

	tx, _ := e.Begin(0)
	row, err := tx.Get(tbl, rid)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int() != 1 || row[1].Str() != "ada" || row[2].Int() != 100 {
		t.Fatalf("row = %v", row)
	}
	rid2, row2, err := tx.GetByKey(tbl, 0, I(1))
	if err != nil || rid2 != rid || row2[1].Str() != "ada" {
		t.Fatalf("GetByKey: %v %v %v", rid2, row2, err)
	}
	if _, _, err := tx.GetByKey(tbl, 0, I(99)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	commit(t, tx)
}

func TestUpdateVisibilityAndSnapshot(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 100)

	// Reader begins before the update: must keep seeing the old balance.
	reader, _ := e.Begin(1)
	writer, _ := e.Begin(2)
	if err := writer.Update(tbl, rid, Row{I(1), S("ada"), I(250)}); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: invisible to the reader.
	row, err := reader.Get(tbl, rid)
	if err != nil || row[2].Int() != 100 {
		t.Fatalf("reader saw uncommitted data: %v %v", row, err)
	}
	commit(t, writer)
	// Still invisible: snapshot semantics.
	row, err = reader.Get(tbl, rid)
	if err != nil || row[2].Int() != 100 {
		t.Fatalf("snapshot violated: %v %v", row, err)
	}
	commit(t, reader)
	// A fresh transaction sees the new value.
	fresh, _ := e.Begin(1)
	row, err = fresh.Get(tbl, rid)
	if err != nil || row[2].Int() != 250 {
		t.Fatalf("fresh read: %v %v", row, err)
	}
	commit(t, fresh)
}

func TestReadOwnWrites(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	tx, _ := e.Begin(0)
	rid, err := tx.Insert(tbl, Row{I(1), S("ada"), I(1)})
	if err != nil {
		t.Fatal(err)
	}
	if row, err := tx.Get(tbl, rid); err != nil || row[1].Str() != "ada" {
		t.Fatalf("own insert invisible: %v %v", row, err)
	}
	if err := tx.Update(tbl, rid, Row{I(1), S("ada"), I(2)}); err != nil {
		t.Fatal(err)
	}
	if row, _ := tx.Get(tbl, rid); row[2].Int() != 2 {
		t.Fatal("own update invisible")
	}
	if err := tx.Delete(tbl, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get(tbl, rid); !errors.Is(err, ErrNotFound) {
		t.Fatal("own delete invisible")
	}
	commit(t, tx)
}

func TestWriteWriteConflictFirstCommitterWins(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 100)

	t1, _ := e.Begin(1)
	t2, _ := e.Begin(2)
	if err := t1.Update(tbl, rid, Row{I(1), S("ada"), I(200)}); err != nil {
		t.Fatal(err)
	}
	// t2 attempts the same row while t1's write is pending: conflict.
	if err := t2.Update(tbl, rid, Row{I(1), S("ada"), I(300)}); !errors.Is(err, ErrConflict) {
		t.Fatalf("pending-write conflict: %v", err)
	}
	commit(t, t1)

	// A txn that began before t1 committed also conflicts (first
	// committer wins).
	t3, _ := e.Begin(3)
	_ = t3
	t4, _ := e.Begin(2)
	defer t4.Abort()
	// t3 began before t1 committed? No -- begin after. Recreate the case:
	// begin t5 BEFORE a new update commits.
	t5, _ := e.Begin(4)
	t6, _ := e.Begin(5)
	if err := t6.Update(tbl, rid, Row{I(1), S("ada"), I(500)}); err != nil {
		t.Fatal(err)
	}
	commit(t, t6)
	if err := t5.Update(tbl, rid, Row{I(1), S("ada"), I(600)}); !errors.Is(err, ErrConflict) {
		t.Fatalf("first-committer-wins violated: %v", err)
	}
	commit(t, t3)
}

func TestLostUpdatePrevented(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "acct", 100)

	// Two increment transactions on the same snapshot: exactly one wins.
	t1, _ := e.Begin(1)
	t2, _ := e.Begin(2)
	r1, _ := t1.Get(tbl, rid)
	r2, _ := t2.Get(tbl, rid)
	err1 := t1.Update(tbl, rid, Row{I(1), S("acct"), I(r1[2].Int() + 10)})
	if err1 == nil {
		err1 = t1.Commit()
	}
	err2 := t2.Update(tbl, rid, Row{I(1), S("acct"), I(r2[2].Int() + 10)})
	if err2 == nil {
		err2 = t2.Commit()
	}
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("exactly one increment must win: err1=%v err2=%v", err1, err2)
	}
	check, _ := e.Begin(3)
	row, _ := check.Get(tbl, rid)
	if row[2].Int() != 110 {
		t.Fatalf("balance = %d, want 110", row[2].Int())
	}
	commit(t, check)
}

func TestAbortRollsBack(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 100)

	tx, _ := e.Begin(1)
	rid2, err := tx.Insert(tbl, Row{I(2), S("bob"), I(50)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, rid, Row{I(1), S("ada"), I(999)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	check, _ := e.Begin(1)
	if _, err := check.Get(tbl, rid2); !errors.Is(err, ErrNotFound) {
		t.Fatal("aborted insert visible")
	}
	if _, _, err := check.GetByKey(tbl, 0, I(2)); !errors.Is(err, ErrNotFound) {
		t.Fatal("aborted insert visible through index")
	}
	row, err := check.Get(tbl, rid)
	if err != nil || row[2].Int() != 100 {
		t.Fatalf("aborted update leaked: %v %v", row, err)
	}
	commit(t, check)

	// The primary key is reusable after the abort.
	insertUser(t, e, tbl, 1, 2, "bob2", 51)
	check2, _ := e.Begin(1)
	if _, row, err := check2.GetByKey(tbl, 0, I(2)); err != nil || row[1].Str() != "bob2" {
		t.Fatalf("key not reusable after abort: %v %v", row, err)
	}
	commit(t, check2)
}

func TestDuplicateKeyRejected(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "ada", 100)
	tx, _ := e.Begin(1)
	if _, err := tx.Insert(tbl, Row{I(1), S("imposter"), I(0)}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v", err)
	}
	// failWith aborted the txn.
	if _, err := tx.Insert(tbl, Row{I(3), S("x"), I(0)}); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("txn not aborted after duplicate: %v", err)
	}
}

func TestDeleteThenReinsertSameKey(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 100)

	tx, _ := e.Begin(1)
	if err := tx.Delete(tbl, rid); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)

	check, _ := e.Begin(1)
	if _, err := check.Get(tbl, rid); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted row visible")
	}
	commit(t, check)

	// Reinsert the same primary key (RID reuse through the tomb chain).
	tx2, _ := e.Begin(1)
	rid2, err := tx2.Insert(tbl, Row{I(1), S("ada2"), I(7)})
	if err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
	commit(t, tx2)
	check2, _ := e.Begin(1)
	_, row, err := check2.GetByKey(tbl, 0, I(1))
	if err != nil || row[1].Str() != "ada2" {
		t.Fatalf("reinserted row: %v %v", row, err)
	}
	commit(t, check2)
	if rid2 != rid {
		// RID reuse is the expected fast path but not mandatory.
		t.Logf("note: reinsert allocated fresh RID %v (old %v)", rid2, rid)
	}
}

func TestDeleteWithinTxnThenInsert(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 100)
	tx, _ := e.Begin(1)
	if err := tx.Delete(tbl, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tbl, Row{I(1), S("ada-new"), I(5)}); err != nil {
		t.Fatalf("insert after own delete: %v", err)
	}
	commit(t, tx)
	check, _ := e.Begin(1)
	_, row, err := check.GetByKey(tbl, 0, I(1))
	if err != nil || row[1].Str() != "ada-new" {
		t.Fatalf("row after delete+insert: %v %v", row, err)
	}
	commit(t, check)
}

func TestSecondaryIndexScanAndKeyChange(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "ada", 1)
	insertUser(t, e, tbl, 0, 2, "ada", 2)
	rid3 := insertUser(t, e, tbl, 0, 3, "bob", 3)

	tx, _ := e.Begin(1)
	var ids []int64
	if err := tx.ScanPrefix(tbl, 1, []Value{S("ada")}, func(_ RID, row Row) bool {
		ids = append(ids, row[0].Int())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("scan ada: %v", ids)
	}
	commit(t, tx)

	// Key-changing update: bob -> ada. Old snapshot readers still resolve
	// via the old entry; new snapshots see three adas.
	oldReader, _ := e.Begin(2)
	upd, _ := e.Begin(3)
	if err := upd.Update(tbl, rid3, Row{I(3), S("ada"), I(3)}); err != nil {
		t.Fatal(err)
	}
	commit(t, upd)

	var oldBobs []int64
	oldReader.ScanPrefix(tbl, 1, []Value{S("bob")}, func(_ RID, row Row) bool {
		oldBobs = append(oldBobs, row[0].Int())
		return true
	})
	if len(oldBobs) != 1 || oldBobs[0] != 3 {
		t.Fatalf("old snapshot lost bob: %v", oldBobs)
	}
	commit(t, oldReader)

	newReader, _ := e.Begin(2)
	var adas, bobs []int64
	newReader.ScanPrefix(tbl, 1, []Value{S("ada")}, func(_ RID, row Row) bool {
		adas = append(adas, row[0].Int())
		return true
	})
	newReader.ScanPrefix(tbl, 1, []Value{S("bob")}, func(_ RID, row Row) bool {
		bobs = append(bobs, row[0].Int())
		return true
	})
	if len(adas) != 3 || len(bobs) != 0 {
		t.Fatalf("new snapshot: adas=%v bobs=%v", adas, bobs)
	}
	commit(t, newReader)
}

func TestScanKeyRange(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	for i := int64(0); i < 100; i++ {
		insertUser(t, e, tbl, 0, i, fmt.Sprintf("u%03d", i), i)
	}
	tx, _ := e.Begin(1)
	var got []int64
	if err := tx.ScanKey(tbl, 0, []Value{I(10)}, []Value{I(20)}, func(_ RID, row Row) bool {
		got = append(got, row[0].Int())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range scan: %v", got)
	}
	commit(t, tx)
}

func TestGCReclaimsOldVersions(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.GCEveryNCommits = 0 }) // manual GC
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 0)
	for i := int64(1); i <= 50; i++ {
		tx, _ := e.Begin(0)
		if err := tx.Update(tbl, rid, Row{I(1), S("ada"), I(i)}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	// Chain is 51 versions deep before GC.
	depth := 0
	for v := tbl.Rows().Get(rid); v != nil; v = v.Next() {
		depth++
	}
	if depth < 50 {
		t.Fatalf("expected deep chain before GC, got %d", depth)
	}
	n := e.RunGC()
	if n == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	depth = 0
	for v := tbl.Rows().Get(rid); v != nil; v = v.Next() {
		depth++
	}
	if depth != 1 {
		t.Fatalf("chain depth after GC = %d, want 1", depth)
	}
	// Data still correct.
	tx, _ := e.Begin(1)
	row, err := tx.Get(tbl, rid)
	if err != nil || row[2].Int() != 50 {
		t.Fatalf("after GC: %v %v", row, err)
	}
	commit(t, tx)
}

func TestGCRespectsActiveSnapshots(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.GCEveryNCommits = 0 })
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 1)

	holder, _ := e.Begin(5) // pins the watermark
	for i := int64(2); i <= 10; i++ {
		tx, _ := e.Begin(0)
		tx.Update(tbl, rid, Row{I(1), S("ada"), I(i)})
		commit(t, tx)
	}
	e.RunGC()
	// The holder must still read balance 1.
	row, err := holder.Get(tbl, rid)
	if err != nil || row[2].Int() != 1 {
		t.Fatalf("GC stole an active snapshot's version: %v %v", row, err)
	}
	commit(t, holder)
	// Now GC can clean up.
	if n := e.RunGC(); n == 0 {
		t.Fatal("post-release GC reclaimed nothing")
	}
}

func TestGCDeleteClearsPIAAndIndex(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.GCEveryNCommits = 0 })
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 1)
	tx, _ := e.Begin(0)
	tx.Delete(tbl, rid)
	commit(t, tx)
	e.RunGC()
	if tbl.Rows().Get(rid) != nil {
		t.Fatal("PIA entry survives delete GC")
	}
	if _, ok, _ := tbl.Index(0).Get(EncodeKey(nil, I(1))); ok {
		t.Fatal("index entry survives delete GC")
	}
}

func TestEvictionReloadsThroughLog(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	for i := int64(0); i < 20; i++ {
		insertUser(t, e, tbl, 0, i, fmt.Sprintf("u%d", i), i*10)
	}
	n, err := e.Evict("users")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing evicted")
	}
	// Reads fault data back in through the SRSS mmap path.
	before := e.Service().Stats().Reads.Load()
	tx, _ := e.Begin(1)
	for i := int64(0); i < 20; i++ {
		_, row, err := tx.GetByKey(tbl, 0, I(i))
		if err != nil || row[2].Int() != i*10 {
			t.Fatalf("evicted read %d: %v %v", i, row, err)
		}
	}
	commit(t, tx)
	if e.Service().Stats().Reads.Load() == before {
		t.Fatal("evicted reads did not touch storage")
	}
}

func TestWorkerSlotExclusive(t *testing.T) {
	e := testEngine(t)
	tx, _ := e.Begin(0)
	if _, err := e.Begin(0); !errors.Is(err, ErrWorkerBusy) {
		t.Fatalf("double begin: %v", err)
	}
	commit(t, tx)
	tx2, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, tx2)
}

func TestTxnDoneGuards(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	tx, _ := e.Begin(0)
	commit(t, tx)
	if _, err := tx.Insert(tbl, Row{I(1), S("x"), I(0)}); !errors.Is(err, ErrTxnDone) {
		t.Fatal("insert on finished txn")
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatal("double commit")
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatal("abort after commit")
	}
}

func TestCommitAsyncPipelines(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	done := make(chan error, 10)
	for i := int64(0); i < 10; i++ {
		tx, err := e.Begin(0) // same worker: pipelining frees the slot
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert(tbl, Row{I(i), S("x"), I(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.CommitAsync(func(err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := <-done; err != nil {
			t.Fatalf("async commit %d: %v", i, err)
		}
	}
	tx, _ := e.Begin(1)
	cnt := 0
	tx.ScanKey(tbl, 0, nil, nil, func(RID, Row) bool { cnt++; return true })
	if cnt != 10 {
		t.Fatalf("rows after pipelined commits = %d", cnt)
	}
	commit(t, tx)
}

func TestUniqueSecondaryIndex(t *testing.T) {
	e := testEngine(t)
	s := &Schema{
		Name: "emails",
		Columns: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "email", Kind: KindString},
		},
		Indexes: []IndexDef{
			{Name: "pk", Columns: []int{0}, Unique: true},
			{Name: "by_email", Columns: []int{1}, Unique: true},
		},
	}
	tbl := mustTable(t, e, s)
	tx, _ := e.Begin(0)
	if _, err := tx.Insert(tbl, Row{I(1), S("a@x.com")}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	tx2, _ := e.Begin(0)
	if _, err := tx2.Insert(tbl, Row{I(2), S("a@x.com")}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique secondary violation: %v", err)
	}
	// Lookup through the unique secondary.
	tx3, _ := e.Begin(0)
	_, row, err := tx3.GetByKey(tbl, 1, S("a@x.com"))
	if err != nil || row[0].Int() != 1 {
		t.Fatalf("secondary lookup: %v %v", row, err)
	}
	commit(t, tx3)
}

func TestLastCheckpointCSNExposed(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "x", 1)
	csn, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.LastCheckpointCSN(); got != csn {
		t.Fatalf("LastCheckpointCSN = %d, want %d", got, csn)
	}
}
