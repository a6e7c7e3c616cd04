package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"hiengine/internal/raceflag"
)

// TestReadOnlyTxnReusesItsHandle: a finished transaction begins again in
// the same memory -- Begin, a point read and Commit on a reused read-only one
// allocate nothing -- since no reader holds a Txn: from its Begin its slot
// answers for its TID. One that wrote, committed or aborted, begins again
// too, under a new TID; a prepared one is refused, as its 2PC decision still
// owns it.
func TestReadOnlyTxnReusesItsHandle(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "a", 10)

	var tx Txn
	key, rows := []Value{I(1)}, 0
	read := func(RID, []byte) error { rows++; return nil }
	slot := &e.workers[2]
	op := func() {
		if err := e.BeginInto(&tx, 2); err != nil {
			t.Fatal(err)
		}
		if st, _, ok := e.resolve(tx.tid); slot.tid.Load() != tx.tid || !ok || st != txActive {
			t.Fatal("the slot does not answer for its active transaction's TID")
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
		old := tx.tid
		if !tx.Reusable() || e.BeginInto(&tx, 2) != nil {
			t.Fatal("a finished transaction that wrote does not begin again in the same memory")
		}
		if tx.tid == old || slot.tid.Load() != tx.tid {
			t.Fatalf("begun again under TID %#x (was %#x); the slot holds %#x", tx.tid, old, slot.tid.Load())
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}

	// A prepared one does not: its versions still carry its TID, which the
	// side table answers for now.
	if err := e.BeginInto(&tx, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, rid, Row{I(1), S("a"), I(12)}); err != nil {
		t.Fatal(err)
	}
	prepare(t, &tx, "g-reuse")
	if tx.Reusable() || e.BeginInto(&tx, 2) == nil {
		t.Fatal("a prepared transaction begins again in the same memory")
	}
	if st, _, ok := e.resolve(tx.tid); slot.tid.Load() == tx.tid || !ok || st != txActive {
		t.Fatal("a prepared transaction's TID is not the side table's")
	}
	resolve(t, e, "g-reuse", false)
	if _, _, ok := e.resolve(tx.tid); ok {
		t.Fatal("a decided transaction's TID is still in the side table")
	}
}

// TestWriteRegistersBeforeItsVersionIsVisible: a transaction's slot holds
// its TID from its Begin, before any version carrying the TID is published,
// so a reader that meets the TID always resolves it (or, once the slot has
// moved on, finds the CSN in the TID's place). Writers update rows while
// readers walk their heads; a TID nothing resolves and which is still in
// place would be a version published ahead of its slot.
func TestWriteRegistersBeforeItsVersionIsVisible(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())

	w, err := e.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if e.workers[1].tid.Load() != w.tid {
		t.Fatal("the slot does not hold its transaction's TID before its first write")
	}
	rid, err := w.Insert(tbl, Row{I(1), S("a"), I(0)})
	if err != nil {
		t.Fatal(err)
	}
	if raw := tbl.rows.Get(rid).tmin.Load(); raw != w.tid {
		t.Fatalf("a published TID %#x, want %#x", raw, w.tid)
	} else if st, _, ok := e.resolve(raw); !ok || st != txActive {
		t.Fatalf("a published TID resolves to state %d (found %v), want active", st, ok)
	}
	commit(t, w)
	if st, csn, ok := e.resolve(w.tid); !ok || st != txCommitted || csn != w.csn || tbl.rows.Get(rid).tmin.Load() != csn {
		t.Fatalf("a committed TID resolves to state %d csn %d (found %v); its version carries %d, want csn %d",
			st, csn, ok, tbl.rows.Get(rid).tmin.Load(), w.csn)
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
			if _, _, ok := e.resolve(raw); !ok && v.tmin.Load() == raw {
				t.Fatalf("a reader met TID %#x that nothing resolves", raw)
			}
		}
	}
	t.Logf("readers met %d in-flight TIDs", met)
}

// TestTIDResolvesAcrossSlotReuse: a reader that meets T's TID and finds it
// in T's slot, while the slot finishes T and begins U in the same handle
// before the reader reads the status word, judges T by what T did -- its CSN,
// or its abort -- never by U's status. The reader's snapshot is the CSN that
// commit draws, as a snapshot drawn just after it is: so a committed T is
// visible to it, and U's status, were the reader to take it for T's, would
// say the opposite (active for a committed T, committed for an aborted one).
func TestTIDResolvesAcrossSlotReuse(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.GCEveryNCommits = -1 })
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "a", 10)
	other := insertUser(t, e, tbl, 0, 2, "b", 20)

	for _, abort := range []bool{false, true} {
		var w Txn
		if err := e.BeginInto(&w, 0); err != nil {
			t.Fatal(err)
		}
		prev := int64(10)
		if abort { // the first round committed 11
			prev = 11
		}
		if err := w.Update(tbl, rid, Row{I(1), S("a"), I(prev + 1)}); err != nil {
			t.Fatal(err)
		}
		tid := w.tid
		r, err := e.Begin(1)
		if err != nil {
			t.Fatal(err)
		}
		// The snapshot the hook's commit lands in: the next CSN drawn.
		r.begin = e.CurrentCSN() + 1
		fired := false
		restore := onSlotRead(func() {
			if fired {
				return
			}
			fired = true
			// T finishes; U begins in its handle, on its slot.
			if abort {
				if err := w.Abort(); err != nil {
					t.Error(err)
				}
			} else if err := w.Commit(); err != nil {
				t.Error(err)
			}
			if err := e.BeginInto(&w, 0); err != nil {
				t.Error(err)
				return
			}
			if abort { // U commits: its status says committed, at a CSN the reader sees
				if err := w.Update(tbl, other, Row{I(2), S("b"), I(21)}); err != nil {
					t.Error(err)
				}
				if err := w.Commit(); err != nil {
					t.Error(err)
				}
			}
		})
		row, err := r.Get(tbl, rid)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if !fired {
			t.Fatalf("abort=%v: the reader never resolved T's TID %#x through its slot", abort, tid)
		}
		want := prev + 1
		if abort {
			want = prev
		}
		if got := row[2].Int(); got != want {
			t.Fatalf("abort=%v: the reader saw v=%d, want %d: it judged T by U's status", abort, got, want)
		}
		commit(t, r)
		if !w.finished {
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
