package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hiengine/internal/raceflag"
)

// scanSchema is a table of groups: (grp, id) is the primary key, so a group
// is a prefix scan, and tag has a non-unique secondary index, whose entries
// go stale when an update changes a row's tag.
func scanSchema() *Schema {
	return &Schema{
		Name: "scan",
		Columns: []Column{
			{Name: "grp", Kind: KindInt},
			{Name: "id", Kind: KindInt},
			{Name: "tag", Kind: KindString},
			{Name: "val", Kind: KindInt},
		},
		Indexes: []IndexDef{
			{Name: "pk", Columns: []int{0, 1}, Unique: true},
			{Name: "by_tag", Columns: []int{2}},
		},
	}
}

var scanTags = []string{"t0", "t1", "t2"}

// scanned is one row a scan handed its callback.
type scanned struct {
	rid RID
	row Row
}

// loadGroup inserts rows 0..n-1 of group g, tagged round-robin, val = id,
// and returns their RIDs by id.
func loadGroup(t *testing.T, e *Engine, tbl *Table, g int64, n int) []RID {
	t.Helper()
	tx, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]RID, n)
	for id := range rids {
		if rids[id], err = tx.Insert(tbl, Row{I(g), I(int64(id)), S(scanTags[id%len(scanTags)]), I(int64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tx)
	return rids
}

// perRow reads rids one by one through Get, the unbatched read path, and
// keeps the visible rows that keep says to, in the order given.
func perRow(tx *Txn, tbl *Table, rids []RID, keep func(Row) bool) []scanned {
	var out []scanned
	for _, rid := range rids {
		row, err := tx.Get(tbl, rid)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			panic(err)
		}
		if keep(row) {
			out = append(out, scanned{rid, row})
		}
	}
	return out
}

// prefixRange returns the raw key range of an index prefix: the keys that
// start with its encoding.
func prefixRange(prefix ...Value) (from, to []byte) {
	from = EncodeKey(nil, prefix...)
	return from, KeySuccessor(from)
}

// scanPrefix runs a raw scan of a prefix's key range that stops after stop
// rows (stop < 0: never). A raw scan hands out no RIDs: each row's is 0.
func scanPrefix(tx *Txn, tbl *Table, idx int, prefix []Value, stop int) ([]scanned, error) {
	var out []scanned
	from, to := prefixRange(prefix...)
	err := tx.ScanRangeRaw(tbl, idx, from, to, func(_, p []byte) bool {
		row, err := DecodeRow(p)
		if err != nil {
			panic(err)
		}
		out = append(out, scanned{row: row})
		return stop < 0 || len(out) < stop
	})
	return out, err
}

// noRIDs returns rows with their RIDs zeroed, as a raw scan hands them out.
func noRIDs(rows []scanned) []scanned {
	out := make([]scanned, len(rows))
	for i, r := range rows {
		out[i].row = r.row
	}
	return out
}

// sameRows reports whether two scans gave the same rows (none is none,
// however the slice was left).
func sameRows(a, b []scanned) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// checkScans holds every scan of tx over tbl to the per-row reads of the
// same snapshot: each group's prefix scan, stopped at every position, a key
// range inside each group, and each tag's secondary scan.
func checkScans(t *testing.T, tx *Txn, tbl *Table, groups [][]RID) {
	t.Helper()
	var all []RID
	for g, rids := range groups {
		all = append(all, rids...)
		want := perRow(tx, tbl, rids, func(Row) bool { return true })
		for stop := -1; stop <= len(want); stop++ {
			if stop == 0 {
				continue // fn says stop after its first row at the earliest
			}
			got, err := scanPrefix(tx, tbl, 0, []Value{I(int64(g))}, stop)
			if err != nil {
				t.Fatal(err)
			}
			w := noRIDs(want)
			if stop > 0 {
				w = w[:stop]
			}
			if !sameRows(got, w) {
				t.Fatalf("group %d (%d rows), stop at %d: scan gave %v, per-row reads %v", g, len(rids), stop, got, w)
			}
		}
		lo, hi := int64(len(rids)/3), int64(len(rids)-len(rids)/4)
		var got []scanned
		if err := tx.ScanKey(tbl, 0, []Value{I(int64(g)), I(lo)}, []Value{I(int64(g)), I(hi)}, func(rid RID, row Row) bool {
			got = append(got, scanned{rid, row})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if w := perRow(tx, tbl, rids, func(r Row) bool { return r[1].Int() >= lo && r[1].Int() < hi }); !sameRows(got, w) {
			t.Fatalf("group %d ids [%d,%d): scan gave %v, per-row reads %v", g, lo, hi, got, w)
		}
	}
	// A secondary key ends in its RID, so a tag's rows come in RID order.
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, tag := range scanTags {
		got, err := scanPrefix(tx, tbl, 1, []Value{S(tag)}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if w := noRIDs(perRow(tx, tbl, all, func(r Row) bool { return r[2].Str() == tag })); !sameRows(got, w) {
			t.Fatalf("tag %s: scan gave %v, per-row reads %v", tag, got, w)
		}
	}
}

// TestBatchedScanMatchesPerRowReads: a scan resolves its entries sixteen at a
// time, and returns exactly, in key order, what reading each row on its own
// returns in the same snapshot -- with groups of 0, 1, 15, 16, 17 and 33 rows
// around the batch's edges, a stop at every position, deleted rows, stale
// secondary keys (a tag changed under an older snapshot), payloads evicted to
// the log, and a reader on a replica.
func TestBatchedScanMatchesPerRowReads(t *testing.T) {
	sizes := []int{0, 1, 15, 16, 17, 33}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := testEngine(t, func(c *Config) { c.GCEveryNCommits = -1 })
			tbl := mustTable(t, e, scanSchema())
			groups := make([][]RID, len(sizes))
			for g, n := range sizes {
				groups[g] = loadGroup(t, e, tbl, int64(g), n)
			}
			old, err := e.Begin(1)
			if err != nil {
				t.Fatal(err)
			}
			defer old.Abort()
			for g, rids := range groups {
				tx, err := e.Begin(0)
				if err != nil {
					t.Fatal(err)
				}
				for id, rid := range rids {
					switch rng.Intn(4) {
					case 0:
						err = tx.Delete(tbl, rid)
					case 1:
						err = tx.Update(tbl, rid, Row{I(int64(g)), I(int64(id)), S(scanTags[rng.Intn(len(scanTags))]), I(rng.Int63n(1000))})
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				commit(t, tx)
			}
			now, err := e.Begin(2)
			if err != nil {
				t.Fatal(err)
			}
			defer now.Abort()
			checkScans(t, old, tbl, groups)
			checkScans(t, now, tbl, groups)
			if n, err := e.Evict("scan"); err != nil || n == 0 {
				t.Fatalf("evicted %d payloads: %v", n, err)
			}
			checkScans(t, old, tbl, groups)
			checkScans(t, now, tbl, groups)

			rep := openTestReplica(t, e)
			rtbl, err := rep.Engine().Table("scan")
			if err != nil {
				t.Fatal(err)
			}
			rtx, err := rep.Engine().Begin(0)
			if err != nil {
				t.Fatal(err)
			}
			defer rtx.Abort()
			checkScans(t, rtx, rtbl, groups)
		})
	}
}

// TestScanSeesItsOwnWriteToALaterRow: fn writing a row that its batch has
// already resolved -- an update, a delete, a secondary key moved away --
// finds the scan handing over that row as the write left it, as a scan that
// reads each row when it reaches it does.
func TestScanSeesItsOwnWriteToALaterRow(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, scanSchema())
	rids := loadGroup(t, e, tbl, 1, 20)
	tx, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	var vals []int64
	if err := tx.ScanPrefix(tbl, 0, []Value{I(1)}, func(_ RID, row Row) bool {
		if row[1].Int() == 0 {
			if err := tx.Update(tbl, rids[5], Row{I(1), I(5), S("t2"), I(500)}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Delete(tbl, rids[7]); err != nil {
				t.Fatal(err)
			}
		}
		vals = append(vals, row[3].Int())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var want []int64
	for id := int64(0); id < 20; id++ {
		switch id {
		case 5:
			want = append(want, 500)
		case 7:
		default:
			want = append(want, id)
		}
	}
	if !reflect.DeepEqual(vals, want) {
		t.Fatalf("scan gave vals %v, want %v", vals, want)
	}
	// Row 9 is tagged t0; moved to t1 by the first row's fn, its t0 entry is
	// stale by the time the scan reaches it.
	var ids []int64
	if err := tx.ScanPrefix(tbl, 1, []Value{S("t0")}, func(_ RID, row Row) bool {
		if len(ids) == 0 {
			if err := tx.Update(tbl, rids[9], Row{I(1), I(9), S("t1"), I(9)}); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, row[1].Int())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 3, 6, 12, 15, 18}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("t0 scan gave ids %v, want %v", ids, want)
	}
}

// TestNestedScanInsideFn: a scan started from inside another's fn, on the
// same transaction, runs on a batch of its own, and both return their rows.
func TestNestedScanInsideFn(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, scanSchema())
	loadGroup(t, e, tbl, 1, 33)
	loadGroup(t, e, tbl, 2, 17)
	tx, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	var outer []int64
	if err := tx.ScanPrefix(tbl, 0, []Value{I(1)}, func(_ RID, row Row) bool {
		outer = append(outer, row[1].Int())
		inner, err := scanPrefix(tx, tbl, 0, []Value{I(2)}, -1)
		if err != nil {
			t.Fatal(err)
		}
		for id, r := range inner {
			if r.row[0].Int() != 2 || r.row[1].Int() != int64(id) {
				t.Fatalf("inner scan's row %d is %v", id, r.row)
			}
		}
		if len(inner) != 17 {
			t.Fatalf("inner scan gave %d rows, want 17", len(inner))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for id, got := range outer {
		if got != int64(id) {
			t.Fatalf("outer scan gave ids %v", outer)
		}
	}
	if len(outer) != 33 {
		t.Fatalf("outer scan gave %d rows, want 33", len(outer))
	}
}

// TestScansRaceUpdatersAndGC: scanners beside updaters and GC. Updaters move
// value between two rows of a group and retag them, so a group's total is
// fixed and secondary entries go stale and are collected; every scan must
// return exactly what per-row reads of its snapshot return, and each group's
// total.
func TestScansRaceUpdatersAndGC(t *testing.T) {
	const groups, rows, updates = 3, 40, 300
	e := testEngine(t)
	tbl := mustTable(t, e, scanSchema())
	rids := make([][]RID, groups)
	for g := range rids {
		rids[g] = loadGroup(t, e, tbl, int64(g), rows)
	}
	const total = rows * (rows - 1) / 2 // val = id at load
	var updaters, scanners sync.WaitGroup
	var done atomic.Bool
	for w := 1; w <= 2; w++ {
		updaters.Add(1)
		go func(w int) {
			defer updaters.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < updates; i++ {
				g, a, b := rng.Intn(groups), rng.Intn(rows), rng.Intn(rows)
				if a == b {
					continue
				}
				if err := moveVal(e, tbl, w, rids[g][a], rids[g][b], rng); err != nil && !errors.Is(err, ErrConflict) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var scans atomic.Int64
	for w := 3; w <= 4; w++ {
		scanners.Add(1)
		go func(w int) {
			defer scanners.Done()
			for !done.Load() || scans.Load() < 4 {
				tx, err := e.Begin(w)
				if err != nil {
					t.Error(err)
					return
				}
				err = checkRacedScans(tx, tbl, rids, total)
				_ = tx.Abort()
				if err != nil {
					t.Error(err)
					return
				}
				scans.Add(1)
			}
		}(w)
	}
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		for !done.Load() {
			e.RunGC()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	updaters.Wait()
	done.Store(true)
	scanners.Wait()
	<-gcDone
	if e.mReclaimed.Load() == 0 {
		t.Fatal("GC reclaimed nothing: the scans never met a pruned chain")
	}
}

// checkRacedScans holds tx's scan of each group to per-row reads of its
// snapshot and to the group's total, and its tag scans to every row once.
func checkRacedScans(tx *Txn, tbl *Table, rids [][]RID, total int64) error {
	for g := range rids {
		got, err := scanPrefix(tx, tbl, 0, []Value{I(int64(g))}, -1)
		if err != nil {
			return err
		}
		sum := int64(0)
		for _, r := range got {
			sum += r.row[3].Int()
		}
		if want := noRIDs(perRow(tx, tbl, rids[g], func(Row) bool { return true })); !sameRows(got, want) || sum != total {
			return fmt.Errorf("group %d: scan gave %v (total %d), per-row reads %v (total %d)", g, got, sum, want, total)
		}
	}
	byTag := 0
	for _, tag := range scanTags {
		got, err := scanPrefix(tx, tbl, 1, []Value{S(tag)}, -1)
		if err != nil {
			return err
		}
		for _, r := range got {
			if r.row[2].Str() != tag {
				return fmt.Errorf("tag %s scan gave %v", tag, r.row)
			}
		}
		byTag += len(got)
	}
	if n := len(rids) * len(rids[0]); byTag != n {
		return fmt.Errorf("the tag scans gave %d rows, want %d", byTag, n)
	}
	return nil
}

// moveVal moves a random amount from row a to row b of a group and gives
// each a random tag, in one transaction on worker w.
func moveVal(e *Engine, tbl *Table, w int, a, b RID, rng *rand.Rand) error {
	tx, err := e.Begin(w)
	if err != nil {
		return err
	}
	amt := rng.Int63n(10)
	for _, m := range []struct {
		rid RID
		d   int64
	}{{a, -amt}, {b, amt}} {
		row, err := tx.Get(tbl, m.rid)
		if err == nil {
			row[2], row[3] = S(scanTags[rng.Intn(len(scanTags))]), I(row[3].Int()+m.d)
			err = tx.Update(tbl, m.rid, row)
		}
		if err != nil {
			_ = tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// TestScanRangeRawAllocFree: a raw scan of a prefix's key range on a
// transaction whose slot has scanned before allocates nothing -- its batch
// and index callback are the slot's.
func TestScanRangeRawAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	e := testEngine(t)
	tbl := mustTable(t, e, scanSchema())
	loadGroup(t, e, tbl, 1, 100)
	tx, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	from, to := prefixRange(I(1))
	n := 0
	fn := func(_, _ []byte) bool { n++; return true }
	scan := func() {
		if err := tx.ScanRangeRaw(tbl, 0, from, to, fn); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if avg := testing.AllocsPerRun(100, scan); avg != 0 {
		t.Fatalf("a 100-row ScanRangeRaw allocates %.2f times, want 0", avg)
	}
	if n%100 != 0 {
		t.Fatalf("the scans visited %d rows, not 100 each", n)
	}
}
