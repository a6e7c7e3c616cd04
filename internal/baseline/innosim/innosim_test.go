package innosim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/engineapi"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

func schema() *core.Schema {
	return &core.Schema{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt},
			{Name: "v", Kind: core.KindString},
		},
		Indexes: []core.IndexDef{{Name: "pk", Columns: []int{0}, Unique: true}},
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

func TestCRUD(t *testing.T) {
	db := testDB(t)
	tx, _ := db.Begin(0)
	if err := tx.Insert("t", core.Row{core.I(1), core.S("one")}); err != nil {
		t.Fatal(err)
	}
	// Read own write before commit.
	row, err := tx.GetByKey("t", 0, core.I(1))
	if err != nil || row[1].Str() != "one" {
		t.Fatalf("own write: %v %v", row, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := db.Begin(0)
	row, err = tx2.GetByKey("t", 0, core.I(1))
	if err != nil || row[1].Str() != "one" {
		t.Fatalf("committed read: %v %v", row, err)
	}
	if err := tx2.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.S("uno")}); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	tx3, _ := db.Begin(0)
	row, _ = tx3.GetByKey("t", 0, core.I(1))
	if row[1].Str() != "uno" {
		t.Fatalf("update lost: %v", row)
	}
	if err := tx3.DeleteByKey("t", core.I(1)); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()

	tx4, _ := db.Begin(0)
	if _, err := tx4.GetByKey("t", 0, core.I(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete lost: %v", err)
	}
	tx4.Commit()
}

func TestDuplicateAndMissing(t *testing.T) {
	db := testDB(t)
	tx, _ := db.Begin(0)
	tx.Insert("t", core.Row{core.I(1), core.S("x")})
	tx.Commit()

	tx2, _ := db.Begin(0)
	if err := tx2.Insert("t", core.Row{core.I(1), core.S("dup")}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	tx3, _ := db.Begin(0)
	if err := tx3.UpdateByKey("t", 0, []core.Value{core.I(9)}, core.Row{core.I(9), core.S("")}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	tx3.Abort()
}

func TestAbortDiscards(t *testing.T) {
	db := testDB(t)
	tx, _ := db.Begin(0)
	tx.Insert("t", core.Row{core.I(5), core.S("ghost")})
	tx.Abort()
	tx2, _ := db.Begin(0)
	if _, err := tx2.GetByKey("t", 0, core.I(5)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted write visible: %v", err)
	}
	tx2.Commit()
}

func TestRowLockConflictNoWait(t *testing.T) {
	db := testDB(t)
	tx0, _ := db.Begin(0)
	tx0.Insert("t", core.Row{core.I(1), core.S("x")})
	tx0.Commit()

	t1, _ := db.Begin(1)
	t2, _ := db.Begin(2)
	if err := t1.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.S("a")}); err != nil {
		t.Fatal(err)
	}
	if err := t2.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.S("b")}); !errors.Is(err, ErrConflict) {
		t.Fatalf("lock conflict: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Lock released: next writer proceeds.
	t3, _ := db.Begin(2)
	if err := t3.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.S("c")}); err != nil {
		t.Fatal(err)
	}
	t3.Commit()
}

func TestBTreeSplitsAndScan(t *testing.T) {
	db := testDB(t, func(c *Config) { c.leafCapacity = 8 })
	const n = 1000
	perm := rand.Perm(n)
	for _, i := range perm {
		tx, _ := db.Begin(0)
		if err := tx.Insert("t", core.Row{core.I(int64(i)), core.S(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Point reads.
	tx, _ := db.Begin(0)
	for i := 0; i < n; i += 37 {
		row, err := tx.GetByKey("t", 0, core.I(int64(i)))
		if err != nil || row[1].Str() != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: %v %v", i, row, err)
		}
	}
	// Full ordered scan.
	var got []int64
	if err := tx.ScanPrefix("t", 0, nil, func(row core.Row) bool {
		got = append(got, row[0].Int())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scan %d rows, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("scan out of order at %d", i)
		}
	}
	tx.Commit()
}

func TestConcurrentDistinctKeys(t *testing.T) {
	db := testDB(t, func(c *Config) { c.leafCapacity = 16 })
	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx, _ := db.Begin(w)
				id := int64(w*per + i)
				if err := tx.Insert("t", core.Row{core.I(id), core.S("v")}); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	tx, _ := db.Begin(0)
	cnt := 0
	tx.ScanPrefix("t", 0, nil, func(core.Row) bool { cnt++; return true })
	tx.Commit()
	if cnt != workers*per {
		t.Fatalf("rows = %d, want %d", cnt, workers*per)
	}
}

func TestCommitForcesStorageTier(t *testing.T) {
	var w delay.CountingWaiter
	m := delay.CloudProfile()
	svc := srss.New(srss.Config{Model: m, Waiter: &w})
	reg := obs.NewRegistry("test")
	svc.AttachObs(reg)
	db, err := New(Config{Service: svc, SegmentSize: 1 << 20, BatchMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable(schema())
	crossLayer := reg.Counter("srss.cross_layer_ops")
	before := crossLayer.Load()
	tx, _ := db.Begin(0)
	tx.Insert("t", core.Row{core.I(1), core.S("x")})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if crossLayer.Load() == before {
		t.Fatal("commit did not cross the compute/storage network")
	}
	// The charged commit latency must exceed the cross-layer RTT.
	if w.Total() < m.CrossLayerRTT {
		t.Fatalf("commit charged %v < cross-layer RTT %v", w.Total(), m.CrossLayerRTT)
	}
}

func TestMySQLVariantCostsMore(t *testing.T) {
	run := func(v Variant) time.Duration {
		var w delay.CountingWaiter
		svc := srss.New(srss.Config{Model: delay.CloudProfile(), Waiter: &w})
		db, err := New(Config{Service: svc, Variant: v, SegmentSize: 1 << 20, BatchMax: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		db.CreateTable(schema())
		for i := 0; i < 50; i++ {
			tx, _ := db.Begin(0)
			tx.Insert("t", core.Row{core.I(int64(i)), core.S("x")})
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		db.FlushDirtyPages()
		return w.Total()
	}
	dbmst := run(VariantDBMST)
	mysql := run(VariantMySQL)
	if mysql <= dbmst {
		t.Fatalf("MySQL variant (%v) not more expensive than DBMS-T (%v)", mysql, dbmst)
	}
}

func TestBufferPoolEvictionCharges(t *testing.T) {
	var w delay.CountingWaiter
	svc := srss.New(srss.Config{Model: delay.CloudProfile(), Waiter: &w})
	db, err := New(Config{Service: svc, bufferPoolPages: 4, leafCapacity: 4, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable(schema())
	for i := 0; i < 200; i++ {
		tx, _ := db.Begin(0)
		tx.Insert("t", core.Row{core.I(int64(i)), core.S("x")})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	pool := db.pool
	if pool.Misses.Load() == 0 {
		t.Fatal("tiny pool produced no misses")
	}
	if pool.Writebacks.Load() == 0 {
		t.Fatal("dirty evictions produced no writebacks")
	}
	// Data correctness unaffected by pool pressure.
	tx, _ := db.Begin(0)
	for i := 0; i < 200; i += 17 {
		if _, err := tx.GetByKey("t", 0, core.I(int64(i))); err != nil {
			t.Fatalf("get %d under pool pressure: %v", i, err)
		}
	}
	tx.Commit()
}

func TestSecondaryIndexRejected(t *testing.T) {
	db := testDB(t)
	s := schema()
	s.Name = "t2"
	s.Indexes = append(s.Indexes, core.IndexDef{Name: "sec", Columns: []int{1}})
	if err := db.CreateTable(s); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("secondary index accepted: %v", err)
	}
}

func TestImplementsEngineAPI(t *testing.T) {
	var _ engineapi.DB = (*DB)(nil)
}

// TestGetByKeyRawKeepsItsPayload: a transaction hands out a row in its
// stored encoding (engineapi.RawReader), its own pending write before the
// tree's, and a payload kept past a later update still reads as it did: an
// update swaps in a new encoding, it never rewrites the old one.
func TestGetByKeyRawKeepsItsPayload(t *testing.T) {
	db := testDB(t)
	put := func(v string) {
		t.Helper()
		tx, _ := db.Begin(0)
		if err := tx.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.S(v)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := db.Begin(0)
	if err := tx.Insert("t", core.Row{core.I(1), core.S("one")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	raw := func(tx engineapi.Txn, key int64) ([]byte, error) {
		t.Helper()
		rr, ok := tx.(engineapi.RawReader)
		if !ok {
			t.Fatal("an innosim transaction hands out no raw rows")
		}
		var kept []byte
		err := rr.GetByKeyRaw("t", 0, []core.Value{core.I(key)}, func(p []byte) error { kept = p; return nil })
		return kept, err
	}
	tx, _ = db.Begin(0)
	kept, err := raw(tx, 1)
	if want := core.EncodeRow(nil, core.Row{core.I(1), core.S("one")}); err != nil || string(kept) != string(want) {
		t.Fatalf("raw row %x, %v; want %x", kept, err, want)
	}
	if _, err := raw(tx, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := tx.UpdateByKey("t", 0, []core.Value{core.I(1)}, core.Row{core.I(1), core.S("own")}); err != nil {
		t.Fatal(err)
	}
	if own, err := raw(tx, 1); err != nil || string(own) != string(core.EncodeRow(nil, core.Row{core.I(1), core.S("own")})) {
		t.Fatalf("own pending write reads %x, %v", own, err)
	}
	tx.Abort()
	put("uno")
	put("eins")
	if row, err := core.DecodeRow(kept); err != nil || row[1].Str() != "one" {
		t.Fatalf("a kept payload reads %v, %v after two updates", row, err)
	}
}
