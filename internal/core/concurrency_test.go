package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentTransfersPreserveTotal is the classic bank invariant: under
// snapshot isolation with first-committer-wins, concurrent transfers may
// abort but the total balance must never change.
func TestConcurrentTransfersPreserveTotal(t *testing.T) {
	const accounts = 20
	const workers = 8
	const transfersPerWorker = 300
	const initial = 1000

	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rids := make([]RID, accounts)
	for i := 0; i < accounts; i++ {
		rids[i] = insertUser(t, e, tbl, 0, int64(i), "acct", initial)
	}

	var wg sync.WaitGroup
	var committed, aborted int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var ok, fail int64
			for i := 0; i < transfersPerWorker; i++ {
				from := rng.Intn(accounts)
				to := rng.Intn(accounts)
				if from == to {
					continue
				}
				amount := int64(rng.Intn(50) + 1)
				err := transfer(e, tbl, w, rids[from], rids[to], int64(from), int64(to), amount)
				if err == nil {
					ok++
				} else if errors.Is(err, ErrConflict) {
					fail++
				} else {
					t.Errorf("transfer: %v", err)
					return
				}
			}
			mu.Lock()
			committed += ok
			aborted += fail
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	total := int64(0)
	tx, _ := e.Begin(0)
	if err := tx.ScanKey(tbl, 0, nil, nil, func(_ RID, row Row) bool {
		total += row[2].Int()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (committed=%d aborted=%d)", total, accounts*initial, committed, aborted)
	}
	if committed == 0 {
		t.Fatal("no transfer ever committed")
	}
	t.Logf("committed=%d aborted=%d", committed, aborted)
}

func transfer(e *Engine, tbl *Table, worker int, fromRID, toRID RID, fromID, toID, amount int64) error {
	tx, err := e.Begin(worker)
	if err != nil {
		return err
	}
	fromRow, err := tx.Get(tbl, fromRID)
	if err != nil {
		tx.Abort()
		return err
	}
	toRow, err := tx.Get(tbl, toRID)
	if err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Update(tbl, fromRID, Row{I(fromID), S("acct"), I(fromRow[2].Int() - amount)}); err != nil {
		return err // Update aborts on conflict
	}
	if err := tx.Update(tbl, toRID, Row{I(toID), S("acct"), I(toRow[2].Int() + amount)}); err != nil {
		return err
	}
	return tx.Commit()
}

// TestConcurrentInsertsSamePK verifies that concurrent inserts of the same
// primary key admit exactly one winner.
func TestConcurrentInsertsSamePK(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	const workers = 8
	var wins int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx, err := e.Begin(w)
			if err != nil {
				t.Error(err)
				return
			}
			_, err = tx.Insert(tbl, Row{I(42), S("racer"), I(int64(w))})
			if err == nil {
				err = tx.Commit()
			}
			if err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			} else if !errors.Is(err, ErrDuplicateKey) && !errors.Is(err, ErrConflict) {
				t.Errorf("unexpected: %v", err)
			}
		}(w)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("winners = %d, want exactly 1", wins)
	}
	tx, _ := e.Begin(0)
	n := 0
	tx.ScanKey(tbl, 0, nil, nil, func(RID, Row) bool { n++; return true })
	commit(t, tx)
	if n != 1 {
		t.Fatalf("visible rows = %d, want 1", n)
	}
}

// TestConcurrentMixedWorkloadWithGC runs inserts, updates, deletes, point
// reads and scans concurrently with periodic GC and checkpoints, then
// checks structural sanity.
func TestConcurrentMixedWorkloadWithGC(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.GCEveryNCommits = 8 })
	tbl := mustTable(t, e, usersSchema())
	const keys = 200
	for i := int64(0); i < keys; i++ {
		insertUser(t, e, tbl, 0, i, "init", 0)
	}
	const workers = 8
	var workerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(w int) {
			defer workerWG.Done()
			rng := rand.New(rand.NewSource(int64(w + 100)))
			for i := 0; i < 400; i++ {
				id := int64(rng.Intn(keys))
				tx, err := e.Begin(w)
				if err != nil {
					t.Error(err)
					return
				}
				switch rng.Intn(10) {
				case 0, 1: // delete
					if rid, _, err := tx.GetByKey(tbl, 0, I(id)); err == nil {
						if err := tx.Delete(tbl, rid); err != nil {
							continue // aborted on conflict
						}
					}
				case 2: // reinsert
					if _, err := tx.Insert(tbl, Row{I(id), S("re"), I(int64(i))}); err != nil {
						continue // duplicate or conflict: txn aborted
					}
				case 3, 4, 5: // update
					if rid, _, err := tx.GetByKey(tbl, 0, I(id)); err == nil {
						if err := tx.Update(tbl, rid, Row{I(id), S("upd"), I(int64(i))}); err != nil {
							continue
						}
					}
				default: // read / scan
					tx.GetByKey(tbl, 0, I(id))
					if rng.Intn(20) == 0 {
						cnt := 0
						tx.ScanKey(tbl, 0, []Value{I(id)}, []Value{I(id + 10)}, func(RID, Row) bool {
							cnt++
							return cnt < 20
						})
					}
				}
				if !tx.finished {
					if err := tx.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// Checkpointer goroutine runs concurrently with the storm.
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := e.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()
	workerWG.Wait()
	close(stop)
	<-ckptDone

	// Sanity: every visible row decodes, and scan count matches point
	// lookups.
	tx, _ := e.Begin(0)
	seen := map[int64]bool{}
	if err := tx.ScanKey(tbl, 0, nil, nil, func(_ RID, row Row) bool {
		id := row[0].Int()
		if seen[id] {
			t.Fatalf("duplicate id %d in scan", id)
		}
		seen[id] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for id := range seen {
		if _, _, err := tx.GetByKey(tbl, 0, I(id)); err != nil {
			t.Fatalf("scan/point divergence on %d: %v", id, err)
		}
	}
	commit(t, tx)

	// The indexes and the indirection array agree: every row whose chain
	// starts at a live version is the one row of its key the scan found. (GC
	// dropping a key's entry, or clearing a RID, under an insert that was
	// reusing them left rows no index led to.)
	tbl.rows.Range(func(rid RID, v *Version) bool {
		if v.tomb() {
			return true
		}
		p, err := v.payload(e)
		if err != nil {
			t.Fatal(err)
		}
		row, err := DecodeRow(p)
		if err != nil {
			t.Fatal(err)
		}
		if id := row[0].Int(); !seen[id] {
			t.Errorf("row %d is live at RID %v but no index entry leads to it", id, rid)
		} else {
			delete(seen, id) // a second live RID for the id is as wrong
		}
		return true
	})

	// The engine survives recovery after the storm.
	want := snapshotTable(t, e, "users")
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 4})
	got := snapshotTable(t, e2, "users")
	if len(got) != len(want) {
		t.Fatalf("post-storm recovery: %d rows, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("post-storm recovery row %d: got %v want %v", id, got[id], w)
		}
	}
}
