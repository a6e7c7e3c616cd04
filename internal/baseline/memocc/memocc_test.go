package memocc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/srss"
)

func schema() *core.Schema {
	return &core.Schema{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt},
			{Name: "grp", Kind: core.KindInt},
			{Name: "v", Kind: core.KindString},
		},
		Indexes: []core.IndexDef{
			{Name: "pk", Columns: []int{0}, Unique: true},
			{Name: "by_grp", Columns: []int{1}, Unique: false},
		},
	}
}

func testDB(t *testing.T, mut ...func(*Config)) *DB {
	t.Helper()
	cfg := Config{Service: srss.New(srss.Config{}), SegmentSize: 1 << 20}
	for _, m := range mut {
		m(&cfg)
	}
	db, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := db.CreateTable(schema()); err != nil {
		t.Fatal(err)
	}
	return db
}

func put(t *testing.T, db *DB, id, grp int64, v string) {
	t.Helper()
	tx, _ := db.Begin(0)
	if err := tx.Insert("t", core.Row{core.I(id), core.I(grp), core.S(v)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCRUD(t *testing.T) {
	db := testDB(t)
	put(t, db, 1, 10, "one")

	tx, _ := db.Begin(0)
	row, err := tx.GetByKey("t", 0, core.I(1))
	if err != nil || row[2].Str() != "one" {
		t.Fatalf("get: %v %v", row, err)
	}
	if err := tx.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.I(10), core.S("uno")}); err != nil {
		t.Fatal(err)
	}
	// Own write visible.
	row, _ = tx.GetByKey("t", 0, core.I(1))
	if row[2].Str() != "uno" {
		t.Fatal("own update invisible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := db.Begin(0)
	if err := tx2.DeleteByKey("t", core.I(1)); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	tx3, _ := db.Begin(0)
	if _, err := tx3.GetByKey("t", 0, core.I(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted visible: %v", err)
	}
	tx3.Commit()
}

func TestDuplicateRejected(t *testing.T) {
	db := testDB(t)
	put(t, db, 1, 1, "x")
	// OCC defers the duplicate decision to commit (after read validation
	// has ruled out a stale-snapshot race).
	tx, _ := db.Begin(0)
	if err := tx.Insert("t", core.Row{core.I(1), core.I(1), core.S("dup")}); err != nil {
		t.Fatalf("insert buffering: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate at commit: %v", err)
	}
	// The original row is intact.
	tx2, _ := db.Begin(0)
	row, err := tx2.GetByKey("t", 0, core.I(1))
	if err != nil || row[2].Str() != "x" {
		t.Fatalf("row clobbered by failed duplicate: %v %v", row, err)
	}
	tx2.Commit()
	// Same-transaction double insert fails immediately.
	tx3, _ := db.Begin(0)
	tx3.Insert("t", core.Row{core.I(7), core.I(1), core.S("a")})
	if err := tx3.Insert("t", core.Row{core.I(7), core.I(1), core.S("b")}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("same-txn double insert: %v", err)
	}
}

func TestInsertAfterDeleteReusesKey(t *testing.T) {
	db := testDB(t)
	put(t, db, 1, 1, "x")
	tx, _ := db.Begin(0)
	tx.DeleteByKey("t", core.I(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	put(t, db, 1, 2, "y")
	tx2, _ := db.Begin(0)
	row, err := tx2.GetByKey("t", 0, core.I(1))
	if err != nil || row[2].Str() != "y" {
		t.Fatalf("reinsert: %v %v", row, err)
	}
	tx2.Commit()
}

func TestOCCValidationAbortsStaleReader(t *testing.T) {
	db := testDB(t)
	put(t, db, 1, 1, "v0")

	reader, _ := db.Begin(0)
	if _, err := reader.GetByKey("t", 0, core.I(1)); err != nil {
		t.Fatal(err)
	}
	// A writer commits between the reader's read and its commit.
	writer, _ := db.Begin(1)
	writer.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.I(1), core.S("v1")})
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	// The reader also writes something, so validation runs with locks.
	if err := reader.Insert("t", core.Row{core.I(2), core.I(1), core.S("z")}); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); !errors.Is(err, ErrAbort) {
		t.Fatalf("stale read not caught: %v", err)
	}
}

func TestReadOnlyValidation(t *testing.T) {
	db := testDB(t)
	put(t, db, 1, 1, "v0")
	r, _ := db.Begin(0)
	r.GetByKey("t", 0, core.I(1))
	w, _ := db.Begin(1)
	w.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.I(1), core.S("v1")})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); !errors.Is(err, ErrAbort) {
		t.Fatalf("read-only validation: %v", err)
	}
}

func TestSecondaryScan(t *testing.T) {
	db := testDB(t)
	for i := int64(0); i < 30; i++ {
		put(t, db, i, i%3, fmt.Sprintf("v%d", i))
	}
	tx, _ := db.Begin(0)
	n := 0
	if err := tx.ScanPrefix("t", 1, []core.Value{core.I(1)}, func(row core.Row) bool {
		if row[1].Int() != 1 {
			t.Fatalf("scan leaked group %d", row[1].Int())
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("group scan found %d, want 10", n)
	}
	tx.Commit()
}

func TestRowCacheServesRepeatLookups(t *testing.T) {
	db := testDB(t)
	put(t, db, 1, 1, "x")
	tx, _ := db.Begin(0)
	for i := 0; i < 10; i++ {
		if _, err := tx.GetByKey("t", 0, core.I(1)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if db.caches[0].m == nil || len(db.caches[0].m) == 0 {
		t.Fatal("row cache never populated")
	}
}

func TestConcurrentCountersExactlyOnce(t *testing.T) {
	// Concurrent increments with OCC retry: the final value equals the
	// number of successful commits.
	db := testDB(t)
	put(t, db, 1, 0, "ctr")
	const workers, attempts = 8, 200
	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ok int64
			for i := 0; i < attempts; i++ {
				tx, _ := db.Begin(w)
				row, err := tx.GetByKey("t", 0, core.I(1))
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.UpdateByKey("t", 0, []core.Value{core.I(1)},
					core.Row{core.I(1), core.I(row[1].Int() + 1), core.S("ctr")}); err != nil {
					continue
				}
				if err := tx.Commit(); err == nil {
					ok++
				} else if !errors.Is(err, ErrAbort) {
					t.Errorf("commit: %v", err)
					return
				}
			}
			mu.Lock()
			committed += ok
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	tx, _ := db.Begin(0)
	row, err := tx.GetByKey("t", 0, core.I(1))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if row[1].Int() != committed {
		t.Fatalf("counter = %d, committed = %d", row[1].Int(), committed)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
}

func TestConcurrentInsertsUniqueWinner(t *testing.T) {
	db := testDB(t)
	const workers = 8
	var wins int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx, _ := db.Begin(w)
			err := tx.Insert("t", core.Row{core.I(777), core.I(int64(w)), core.S("r")})
			if err == nil {
				err = tx.Commit()
			}
			if err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			} else if !errors.Is(err, ErrDuplicate) && !errors.Is(err, ErrAbort) {
				t.Errorf("unexpected: %v", err)
			}
		}(w)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("winners = %d, want 1", wins)
	}
}

func TestConcurrentMixedStress(t *testing.T) {
	db := testDB(t)
	const keys = 50
	for i := int64(0); i < keys; i++ {
		put(t, db, i, i%5, "init")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				tx, _ := db.Begin(w)
				id := int64(rng.Intn(keys))
				switch rng.Intn(4) {
				case 0:
					tx.GetByKey("t", 0, core.I(id))
				case 1:
					tx.UpdateByKey("t", 0, []core.Value{core.I(id)},
						core.Row{core.I(id), core.I(int64(i)), core.S("u")})
				case 2:
					tx.ScanPrefix("t", 1, []core.Value{core.I(id % 5)}, func(core.Row) bool { return true })
				case 3:
					tx.GetByKey("t", 0, core.I(id))
					tx.UpdateByKey("t", 0, []core.Value{core.I((id + 1) % keys)},
						core.Row{core.I((id + 1) % keys), core.I(int64(i)), core.S("u2")})
				}
				tx.Commit() // ErrAbort acceptable
			}
		}(w)
	}
	wg.Wait()
	if db.Commits.Load() == 0 {
		t.Fatal("no commits under stress")
	}
	// Table intact: all keys readable.
	tx, _ := db.Begin(0)
	for i := int64(0); i < keys; i++ {
		if _, err := tx.GetByKey("t", 0, core.I(i)); err != nil {
			t.Fatalf("key %d lost: %v", i, err)
		}
	}
	tx.Commit()
}

func TestImplementsEngineAPI(t *testing.T) {
	var _ engineapi.DB = (*DB)(nil)
}

// TestGetByKeyRawKeepsItsPayload: a transaction hands out a row in its
// stored encoding (engineapi.RawReader), through either unique lookup and
// its own pending write first, the read joining the read set; a payload
// kept past a later update still reads as it did: a record's encoding is
// swapped, never rewritten.
func TestGetByKeyRawKeepsItsPayload(t *testing.T) {
	db := testDB(t)
	put(t, db, 1, 10, "one")
	raw := func(tx engineapi.Txn, key int64) ([]byte, error) {
		t.Helper()
		rr, ok := tx.(engineapi.RawReader)
		if !ok {
			t.Fatal("a memocc transaction hands out no raw rows")
		}
		var kept []byte
		err := rr.GetByKeyRaw("t", 0, []core.Value{core.I(key)}, func(p []byte) error { kept = p; return nil })
		return kept, err
	}
	tx, _ := db.Begin(0)
	kept, err := raw(tx, 1)
	if want := core.EncodeRow(nil, core.Row{core.I(1), core.I(10), core.S("one")}); err != nil || string(kept) != string(want) {
		t.Fatalf("raw row %x, %v; want %x", kept, err, want)
	}
	if _, err := raw(tx, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	own := core.Row{core.I(1), core.I(10), core.S("own")}
	if err := tx.UpdateByKey("t", 0, []core.Value{core.I(1)}, own); err != nil {
		t.Fatal(err)
	}
	if got, err := raw(tx, 1); err != nil || string(got) != string(core.EncodeRow(nil, own)) {
		t.Fatalf("own pending write reads %x, %v", got, err)
	}
	tx.Abort()

	// The read is validated like GetByKey's: a writer in between aborts it.
	tx, _ = db.Begin(0)
	if _, err := raw(tx, 1); err != nil {
		t.Fatal(err)
	}
	upd, _ := db.Begin(1)
	if err := upd.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.I(10), core.S("uno")}); err != nil {
		t.Fatal(err)
	}
	if err := upd.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrAbort) {
		t.Fatalf("a raw read overwritten before commit: %v, want ErrAbort", err)
	}
	if row, err := core.DecodeRow(kept); err != nil || row[2].Str() != "one" {
		t.Fatalf("a kept payload reads %v, %v after an update", row, err)
	}
}
