package core

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestSerialEquivalencePerKey validates the MVCC protocol against a serial
// reference: concurrent read-modify-write transactions on a small key space
// record (CSN, key, read value, written value); replaying the committed
// history in CSN order, every transaction's read must equal the previous
// committed write to that key. Under snapshot isolation with
// first-committer-wins this must hold exactly -- a stale read that survived
// to commit would be a lost update.
func TestSerialEquivalencePerKey(t *testing.T) {
	const keys = 8
	const workers = 8
	const attempts = 400

	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rids := make([]RID, keys)
	for i := 0; i < keys; i++ {
		rids[i] = insertUser(t, e, tbl, 0, int64(i), "k", 0)
	}

	type event struct {
		csn   uint64
		key   int
		read  int64
		wrote int64
	}
	var mu sync.Mutex
	var events []event

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			local := make([]event, 0, attempts)
			for i := 0; i < attempts; i++ {
				k := rng.Intn(keys)
				tx, err := e.Begin(w)
				if err != nil {
					t.Error(err)
					return
				}
				row, err := tx.Get(tbl, rids[k])
				if err != nil {
					tx.Abort()
					continue
				}
				read := row[2].Int()
				wrote := read + 1
				if err := tx.Update(tbl, rids[k], Row{I(int64(k)), S("k"), I(wrote)}); err != nil {
					if !errors.Is(err, ErrConflict) {
						t.Errorf("update: %v", err)
						return
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				local = append(local, event{csn: tx.csn, key: k, read: read, wrote: wrote})
			}
			mu.Lock()
			events = append(events, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	sort.Slice(events, func(i, j int) bool { return events[i].csn < events[j].csn })
	last := make([]int64, keys)
	for i, ev := range events {
		if ev.csn == 0 {
			t.Fatalf("committed txn without CSN at %d", i)
		}
		if i > 0 && events[i-1].csn == ev.csn {
			t.Fatalf("duplicate CSN %d", ev.csn)
		}
		if ev.read != last[ev.key] {
			t.Fatalf("serial equivalence violated at CSN %d: key %d read %d, serial value %d",
				ev.csn, ev.key, ev.read, last[ev.key])
		}
		last[ev.key] = ev.wrote
	}
	// The final engine state equals the serial outcome.
	check, _ := e.Begin(0)
	for k := 0; k < keys; k++ {
		row, err := check.Get(tbl, rids[k])
		if err != nil {
			t.Fatal(err)
		}
		if row[2].Int() != last[k] {
			t.Fatalf("final state key %d = %d, serial %d", k, row[2].Int(), last[k])
		}
	}
	commit(t, check)
	if len(events) == 0 {
		t.Fatal("no transactions committed")
	}
	t.Logf("validated %d committed RMW transactions", len(events))
}

// TestReadOnlySnapshotStability: a long-running read-only transaction sees
// one frozen snapshot across many concurrent writers.
func TestReadOnlySnapshotStability(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	const keys = 10
	rids := make([]RID, keys)
	for i := 0; i < keys; i++ {
		rids[i] = insertUser(t, e, tbl, 0, int64(i), "s", 100)
	}
	reader, _ := e.Begin(15)

	// Writers shuffle balances around (sum-preserving) while the reader
	// repeatedly sums: the reader's sum must never change.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := rng.Intn(keys), rng.Intn(keys)
				if a == b {
					continue
				}
				transfer(e, tbl, w, rids[a], rids[b], int64(a), int64(b), 5)
			}
		}(w)
	}
	for round := 0; round < 50; round++ {
		for k := 0; k < keys; k++ {
			row, err := reader.Get(tbl, rids[k])
			if err != nil {
				t.Fatal(err)
			}
			if row[2].Int() != 100 {
				t.Fatalf("round %d: reader saw key %d = %d (snapshot moved)", round, k, row[2].Int())
			}
		}
	}
	close(stop)
	wg.Wait()
	commit(t, reader)

	// A fresh reader still sees a sum-preserving state.
	fresh, _ := e.Begin(15)
	sum := int64(0)
	for k := 0; k < keys; k++ {
		row, _ := fresh.Get(tbl, rids[k])
		sum += row[2].Int()
	}
	commit(t, fresh)
	if sum != keys*100 {
		t.Fatalf("total drifted to %d", sum)
	}
}
