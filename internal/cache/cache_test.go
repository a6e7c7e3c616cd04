package cache

import (
	"errors"
	"fmt"
	"testing"

	"hiengine/internal/adapt"
	"hiengine/internal/baseline/innosim"
	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/srss"
)

func schema() *core.Schema {
	return &core.Schema{
		Name: "items",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt},
			{Name: "v", Kind: core.KindString},
		},
		Indexes: []core.IndexDef{{Name: "pk", Columns: []int{0}, Unique: true}},
	}
}

// setup builds a cache over HiEngine (front) and innosim (back), optionally
// pre-seeding rows directly into the back engine (cold data).
func setup(t *testing.T, mode Mode, backRows int) (*DB, engineapi.DB) {
	t.Helper()
	front, err := core.Open(core.Config{Workers: 8, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	back, err := innosim.New(innosim.Config{Service: srss.New(srss.Config{}), SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(back.Close)

	db, err := New(Config{Front: adapt.New(front), Back: back, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(schema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < backRows; i++ {
		tx, _ := back.Begin(0)
		if err := tx.Insert("items", core.Row{core.I(int64(i)), core.S(fmt.Sprintf("cold-%d", i))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return db, back
}

func TestReadFaultsInFromBack(t *testing.T) {
	db, _ := setup(t, WriteThrough, 10)
	tx, err := db.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	row, err := tx.GetByKey("items", 0, core.I(3))
	if err != nil {
		t.Fatal(err)
	}
	if row[1].Str() != "cold-3" {
		t.Fatalf("faulted row: %v", row)
	}
	tx.Commit()
	// Second read hits the cache (front engine), no loader involvement
	// observable, value unchanged.
	tx2, _ := db.Begin(0)
	row, err = tx2.GetByKey("items", 0, core.I(3))
	if err != nil || row[1].Str() != "cold-3" {
		t.Fatalf("cached read: %v %v", row, err)
	}
	tx2.Commit()
}

func TestMissNegativeCaching(t *testing.T) {
	db, _ := setup(t, WriteThrough, 0)
	tx, _ := db.Begin(0)
	if _, err := tx.GetByKey("items", 0, core.I(42)); !errors.Is(err, engineapi.ErrNotFound) {
		t.Fatalf("miss: %v", err)
	}
	// The key can still be inserted afterwards.
	if err := tx.Insert("items", core.Row{core.I(42), core.S("new")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := db.Begin(0)
	row, err := tx2.GetByKey("items", 0, core.I(42))
	if err != nil || row[1].Str() != "new" {
		t.Fatalf("after insert: %v %v", row, err)
	}
	tx2.Commit()
}

func TestWriteThroughPropagates(t *testing.T) {
	db, back := setup(t, WriteThrough, 5)
	tx, _ := db.Begin(0)
	if err := tx.UpdateByKey("items", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.S("hot-1")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("items", core.Row{core.I(100), core.S("fresh")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteByKey("items", core.I(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The back engine observed all three post-images.
	btx, _ := back.Begin(1)
	row, err := btx.GetByKey("items", 0, core.I(1))
	if err != nil || row[1].Str() != "hot-1" {
		t.Fatalf("back update: %v %v", row, err)
	}
	row, err = btx.GetByKey("items", 0, core.I(100))
	if err != nil || row[1].Str() != "fresh" {
		t.Fatalf("back insert: %v %v", row, err)
	}
	if _, err := btx.GetByKey("items", 0, core.I(2)); !errors.Is(err, engineapi.ErrNotFound) {
		t.Fatalf("back delete: %v", err)
	}
	btx.Commit()
}

func TestWriteBehindFlush(t *testing.T) {
	db, back := setup(t, WriteBehind, 0)
	for i := 0; i < 50; i++ {
		tx, _ := db.Begin(0)
		if err := tx.Insert("items", core.Row{core.I(int64(i)), core.S("wb")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.flush(); err != nil {
		t.Fatal(err)
	}
	btx, _ := back.Begin(1)
	n := 0
	btx.ScanPrefix("items", 0, nil, func(core.Row) bool { n++; return true })
	btx.Commit()
	if n != 50 {
		t.Fatalf("back has %d rows after flush, want 50", n)
	}
}

func TestAbortPropagatesNothing(t *testing.T) {
	db, back := setup(t, WriteThrough, 0)
	tx, _ := db.Begin(0)
	if err := tx.Insert("items", core.Row{core.I(1), core.S("ghost")}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	btx, _ := back.Begin(1)
	if _, err := btx.GetByKey("items", 0, core.I(1)); !errors.Is(err, engineapi.ErrNotFound) {
		t.Fatalf("aborted write reached back: %v", err)
	}
	btx.Commit()
}

func TestDuplicateAgainstColdRow(t *testing.T) {
	// Inserting a key that exists only in the back engine must fail: the
	// cache faults it in before the uniqueness check.
	db, _ := setup(t, WriteThrough, 3)
	tx, _ := db.Begin(0)
	if err := tx.Insert("items", core.Row{core.I(1), core.S("dup")}); !errors.Is(err, engineapi.ErrDuplicate) {
		t.Fatalf("cold duplicate: %v", err)
	}
}

func TestPreloadEnablesScans(t *testing.T) {
	db, _ := setup(t, WriteThrough, 20)
	tx, _ := db.Begin(0)
	if err := tx.ScanPrefix("items", 0, nil, func(core.Row) bool { return true }); !errors.Is(err, ErrNotCached) {
		t.Fatalf("scan before preload: %v", err)
	}
	tx.Abort()
	n, err := db.Preload("items")
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("preloaded %d, want 20", n)
	}
	tx2, _ := db.Begin(0)
	cnt := 0
	if err := tx2.ScanPrefix("items", 0, nil, func(core.Row) bool { cnt++; return true }); err != nil {
		t.Fatal(err)
	}
	if cnt != 20 {
		t.Fatalf("scan found %d, want 20", cnt)
	}
	tx2.Commit()
}

func TestConflictSemanticsThroughCache(t *testing.T) {
	db, _ := setup(t, WriteThrough, 2)
	t1, _ := db.Begin(0)
	t2, _ := db.Begin(1)
	if err := t1.UpdateByKey("items", 0, []core.Value{core.I(0)}, core.Row{core.I(0), core.S("a")}); err != nil {
		t.Fatal(err)
	}
	if err := t2.UpdateByKey("items", 0, []core.Value{core.I(0)}, core.Row{core.I(0), core.S("b")}); !errors.Is(err, engineapi.ErrConflict) {
		t.Fatalf("conflict through cache: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedCache(t *testing.T) {
	db, _ := setup(t, WriteBehind, 0)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("begin after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

// TestGetByKeyRawFaultsIn: a cache transaction hands out a row in its stored
// encoding (engineapi.RawReader) as GetByKey reads it, a cold row faulted in
// from the back engine first, and a secondary lookup on a table not
// preloaded is refused the same way.
func TestGetByKeyRawFaultsIn(t *testing.T) {
	db, _ := setup(t, WriteThrough, 10)
	tx, err := db.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	rr, ok := tx.(engineapi.RawReader)
	if !ok {
		t.Fatal("a cache transaction hands out no raw rows")
	}
	var got []byte
	if err := rr.GetByKeyRaw("items", 0, []core.Value{core.I(3)}, func(p []byte) error { got = p; return nil }); err != nil {
		t.Fatal(err)
	}
	if want := core.EncodeRow(nil, core.Row{core.I(3), core.S("cold-3")}); string(got) != string(want) {
		t.Fatalf("raw row %x, want %x", got, want)
	}
	if err := rr.GetByKeyRaw("items", 0, []core.Value{core.I(42)}, func([]byte) error { return nil }); !errors.Is(err, engineapi.ErrNotFound) {
		t.Fatalf("miss: %v", err)
	}
	if err := rr.GetByKeyRaw("items", 1, []core.Value{core.S("x")}, func([]byte) error { return nil }); !errors.Is(err, ErrNotCached) {
		t.Fatalf("secondary lookup on a table not preloaded: %v", err)
	}
}
