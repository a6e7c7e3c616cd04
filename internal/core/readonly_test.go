package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"hiengine/internal/raceflag"
)

// TestReadOnlyTxnReusesItsHandle: a transaction that never writes never
// registers in the status map, so once finished it may begin again in the
// same memory -- Begin, a point read and Commit on it allocate nothing. One
// that wrote, committed or aborted, is refused: a reader that met its TID may
// still hold it.
func TestReadOnlyTxnReusesItsHandle(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "a", 10)

	var tx Txn
	key, rows := []Value{I(1)}, 0
	read := func(RID, []byte) error { rows++; return nil }
	op := func() {
		if err := e.BeginInto(&tx, 2); err != nil {
			t.Fatal(err)
		}
		if e.status.lookup(tx.tid) != nil {
			t.Fatal("a transaction that has not written is in the status map")
		}
		if err := tx.GetByKeyRaw(tbl, 0, key, read); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	op()
	if !tx.Reusable() {
		t.Fatal("a finished read-only transaction is not reusable")
	}
	if avg := testing.AllocsPerRun(100, op); avg != 0 && !raceflag.Enabled {
		t.Fatalf("Begin, a point read and Commit on a reused read-only Txn allocate %.2f times, want 0", avg)
	}
	if rows != 102 {
		t.Fatalf("the reads found %d rows, want 102", rows)
	}
	// An aborted read-only transaction is as reusable.
	if err := e.BeginInto(&tx, 2); err != nil {
		t.Fatal(err)
	}
	if tx.Reusable() {
		t.Fatal("an active transaction is reusable")
	}
	if err := tx.Abort(); err != nil || !tx.Reusable() {
		t.Fatalf("aborted read-only transaction: abort %v, reusable %v", err, tx.Reusable())
	}

	for _, finish := range []func(*Txn) error{(*Txn).Commit, (*Txn).Abort} {
		if err := e.BeginInto(&tx, 2); err != nil {
			t.Fatal(err)
		}
		if err := tx.Update(tbl, rid, Row{I(1), S("a"), I(11)}); err != nil {
			t.Fatal(err)
		}
		if err := finish(&tx); err != nil {
			t.Fatal(err)
		}
		if tx.Reusable() || e.BeginInto(&tx, 2) == nil {
			t.Fatal("a transaction that wrote begins again in the same memory")
		}
		tx = Txn{}
	}
}

// TestWriteRegistersBeforeItsVersionIsVisible: a transaction enters the
// status map at its first write, before the version carrying its TID is
// published, so a reader that meets the TID always finds the owner (or, once
// the owner is gone from the map, the CSN in the TID's place). Writers update
// rows while readers walk their heads; a TID whose owner is missing and which
// is still in place would be a version published ahead of its registration.
func TestWriteRegistersBeforeItsVersionIsVisible(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())

	w, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if e.status.lookup(w.tid) != nil {
		t.Fatal("registered before its first write")
	}
	rid, err := w.Insert(tbl, Row{I(1), S("a"), I(0)})
	if err != nil {
		t.Fatal(err)
	}
	if raw := tbl.rows.Get(rid).tmin.Load(); raw != w.tid || e.status.lookup(raw) != w {
		t.Fatalf("a published TID %#x finds owner %p, want %p", raw, e.status.lookup(raw), w)
	}
	commit(t, w)
	if e.status.lookup(w.tid) != nil {
		t.Fatal("still registered once its versions carry the CSN")
	}

	const nRows = 8
	rids := []RID{rid}
	for id := int64(2); id <= nRows; id++ {
		rids = append(rids, insertUser(t, e, tbl, 0, id, "a", 0))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wk := 0; wk < 2; wk++ {
		wg.Add(1)
		go func(wk int) { // each writer owns half the rows: no conflicts, no aborts
			defer wg.Done()
			for n := int64(0); !stop.Load(); n++ {
				tx, err := e.Begin(2 + wk)
				if err != nil {
					t.Error(err)
					return
				}
				for i := wk; i < nRows; i += 2 {
					if err := tx.Update(tbl, rids[i], Row{I(int64(i + 1)), S("a"), I(n)}); err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(wk)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	met := 0
	for round := 0; round < 20000 && !t.Failed(); round++ {
		for _, r := range rids {
			v := tbl.rows.Get(r)
			raw := v.tmin.Load()
			if !isTID(raw) {
				continue
			}
			met++
			if e.status.lookup(raw) == nil && v.tmin.Load() == raw {
				t.Fatalf("a reader met TID %#x with no owner in the status map", raw)
			}
		}
	}
	t.Logf("readers met %d in-flight TIDs", met)
}
