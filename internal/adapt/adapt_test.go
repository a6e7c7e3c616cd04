package adapt

import (
	"errors"
	"testing"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/raceflag"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	e, err := core.Open(core.Config{Workers: 8, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	db := New(e)
	if err := db.CreateTable(&core.Schema{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt},
			{Name: "grp", Kind: core.KindInt},
			{Name: "v", Kind: core.KindString},
		},
		Indexes: []core.IndexDef{
			{Name: "pk", Columns: []int{0}, Unique: true},
			{Name: "by_grp", Columns: []int{1}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAdapterCRUDAndErrorMapping(t *testing.T) {
	db := testDB(t)
	tx, err := db.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", core.Row{core.I(1), core.I(10), core.S("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Duplicate maps to engineapi.ErrDuplicate.
	tx2, _ := db.Begin(0)
	if err := tx2.Insert("t", core.Row{core.I(1), core.I(1), core.S("dup")}); !errors.Is(err, engineapi.ErrDuplicate) {
		t.Fatalf("duplicate mapping: %v", err)
	}

	// Missing row maps to engineapi.ErrNotFound.
	tx3, _ := db.Begin(0)
	if _, err := tx3.GetByKey("t", 0, core.I(99)); !errors.Is(err, engineapi.ErrNotFound) {
		t.Fatalf("not-found mapping: %v", err)
	}

	// Conflict maps to engineapi.ErrConflict.
	t4, _ := db.Begin(1)
	t5, _ := db.Begin(2)
	if err := t4.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.I(11), core.S("b")}); err != nil {
		t.Fatal(err)
	}
	if err := t5.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.I(12), core.S("c")}); !errors.Is(err, engineapi.ErrConflict) {
		t.Fatalf("conflict mapping: %v", err)
	}
	if err := t4.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()

	// Scan through the adapter.
	t6, _ := db.Begin(0)
	n := 0
	if err := t6.ScanPrefix("t", 1, []core.Value{core.I(11)}, func(row core.Row) bool {
		if row[0].Int() != 1 {
			t.Fatalf("scan row: %v", row)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("scan matched %d", n)
	}
	// Delete through the adapter.
	if err := t6.DeleteByKey("t", core.I(1)); err != nil {
		t.Fatal(err)
	}
	if err := t6.Commit(); err != nil {
		t.Fatal(err)
	}
	t7, _ := db.Begin(0)
	if _, err := t7.GetByKey("t", 0, core.I(1)); !errors.Is(err, engineapi.ErrNotFound) {
		t.Fatalf("delete through adapter: %v", err)
	}
	t7.Commit()
}

func TestAdapterMemoDoesNotGoStale(t *testing.T) {
	// The RID memo must not leak across keys: Get key A then update key B.
	db := testDB(t)
	tx, _ := db.Begin(0)
	tx.Insert("t", core.Row{core.I(1), core.I(1), core.S("a")})
	tx.Insert("t", core.Row{core.I(2), core.I(2), core.S("b")})
	tx.Commit()

	tx2, _ := db.Begin(0)
	if _, err := tx2.GetByKey("t", 0, core.I(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.UpdateByKey("t", 0, []core.Value{core.I(2)}, core.Row{core.I(2), core.I(2), core.S("b2")}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := db.Begin(0)
	rowA, _ := tx3.GetByKey("t", 0, core.I(1))
	rowB, _ := tx3.GetByKey("t", 0, core.I(2))
	if rowA[2].Str() != "a" || rowB[2].Str() != "b2" {
		t.Fatalf("memo corruption: a=%v b=%v", rowA, rowB)
	}
	tx3.Commit()
}

func TestAdapterAsyncCommit(t *testing.T) {
	db := testDB(t)
	tx, _ := db.Begin(0)
	if err := tx.Insert("t", core.Row{core.I(7), core.I(7), core.S("async")}); err != nil {
		t.Fatal(err)
	}
	ac, ok := tx.(engineapi.AsyncCommitter)
	if !ok {
		t.Fatal("adapter transactions must support async commit")
	}
	done := make(chan error, 1)
	if err := ac.CommitAsync(func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin(0)
	if _, err := tx2.GetByKey("t", 0, core.I(7)); err != nil {
		t.Fatalf("async-committed row missing: %v", err)
	}
	tx2.Commit()
}

// TestMemoProbeAllocFree: the drivers' GetByKey-then-UpdateByKey pattern
// resolves the RID from the memo; probing it builds the key on the stack.
func TestMemoProbeAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := testDB(t)
	btx, err := db.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer btx.Abort()
	tx := btx.(*Txn)
	if err := tx.Insert("t", core.Row{core.I(1), core.I(1), core.S("v")}); err != nil {
		t.Fatal(err)
	}
	key := []core.Value{core.I(1)}
	if _, err := tx.GetByKey("t", 0, key...); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.table("t")
	if err != nil {
		t.Fatal(err)
	}
	hit := false
	if avg := testing.AllocsPerRun(1000, func() { _, hit = tx.memoRID(tbl, 0, key) }); avg != 0 || !hit {
		t.Fatalf("memo probe: hit=%v, %.1f allocations, want a hit and 0", hit, avg)
	}
}
