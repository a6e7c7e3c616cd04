package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hiengine/internal/srss"
)

// TestPropertyEngineMatchesReferenceModel drives the engine with a long
// randomized single-session history -- inserts, updates, deletes, point
// reads, scans, plus periodic GC, checkpoints, compaction (full and of a
// segment subset, beside the engine's own), eviction and
// even full crash-recovery -- and checks after every step that the visible
// state matches a plain map reference model. This is the repository's
// model-checking test: any divergence in MVCC visibility, index
// maintenance, GC, compaction address rewriting or recovery shows up as a
// mismatch.
func TestPropertyEngineMatchesReferenceModel(t *testing.T) {
	const keys = 120
	const steps = 3000

	svc := newTestService()
	e, err := Open(Config{Service: svc, Workers: 4, SegmentSize: 1 << 18, GCEveryNCommits: 16})
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustTable(t, e, usersSchema())

	ref := make(map[int64][2]interface{}) // id -> (name, balance)
	rng := rand.New(rand.NewSource(20260705))

	verifyPoint := func(id int64) {
		t.Helper()
		tx, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Commit()
		_, row, err := tx.GetByKey(tbl, 0, I(id))
		want, exists := ref[id]
		switch {
		case exists && err != nil:
			t.Fatalf("id %d: expected %v, got error %v", id, want, err)
		case !exists && !errors.Is(err, ErrNotFound):
			t.Fatalf("id %d: expected absent, got row %v err %v", id, row, err)
		case exists:
			if row[1].Str() != want[0] || row[2].Int() != want[1] {
				t.Fatalf("id %d: got (%v,%v) want %v", id, row[1].Str(), row[2].Int(), want)
			}
		}
	}
	verifyFull := func(ctx string) {
		t.Helper()
		tx, err := e.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int64][2]interface{})
		if err := tx.ScanKey(tbl, 0, nil, nil, func(_ RID, row Row) bool {
			got[row[0].Int()] = [2]interface{}{row[1].Str(), row[2].Int()}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
		if len(got) != len(ref) {
			t.Fatalf("%s: scan has %d rows, model has %d", ctx, len(got), len(ref))
		}
		for id, w := range ref {
			if got[id] != w {
				t.Fatalf("%s: id %d got %v want %v", ctx, id, got[id], w)
			}
		}
	}

	for step := 0; step < steps; step++ {
		id := int64(rng.Intn(keys))
		switch op := rng.Intn(100); {
		case op < 35: // insert
			tx, _ := e.Begin(0)
			name := fmt.Sprintf("n%d", step)
			bal := int64(step)
			_, err := tx.Insert(tbl, Row{I(id), S(name), I(bal)})
			if _, exists := ref[id]; exists {
				if !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("step %d: duplicate insert of %d: %v", step, id, err)
				}
				// failWith aborted the txn already.
			} else {
				if err != nil {
					t.Fatalf("step %d: insert %d: %v", step, id, err)
				}
				commit(t, tx)
				ref[id] = [2]interface{}{name, bal}
			}
		case op < 60: // update
			tx, _ := e.Begin(0)
			rid, _, err := tx.GetByKey(tbl, 0, I(id))
			if _, exists := ref[id]; !exists {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: ghost row %d: %v", step, id, err)
				}
				tx.Abort()
				break
			}
			if err != nil {
				t.Fatalf("step %d: lookup %d: %v", step, id, err)
			}
			name := fmt.Sprintf("u%d", step)
			bal := int64(-step)
			if err := tx.Update(tbl, rid, Row{I(id), S(name), I(bal)}); err != nil {
				t.Fatalf("step %d: update %d: %v", step, id, err)
			}
			commit(t, tx)
			ref[id] = [2]interface{}{name, bal}
		case op < 75: // delete
			tx, _ := e.Begin(0)
			rid, _, err := tx.GetByKey(tbl, 0, I(id))
			if _, exists := ref[id]; !exists {
				tx.Abort()
				break
			}
			if err != nil {
				t.Fatalf("step %d: lookup %d: %v", step, id, err)
			}
			if err := tx.Delete(tbl, rid); err != nil {
				t.Fatalf("step %d: delete %d: %v", step, id, err)
			}
			commit(t, tx)
			delete(ref, id)
		case op < 78: // aborted multi-op txn leaves no trace
			tx, _ := e.Begin(0)
			freshID := int64(keys + rng.Intn(50))
			if _, err := tx.Insert(tbl, Row{I(freshID), S("ghost"), I(0)}); err == nil {
				tx.Abort()
			}
		case op < 90: // point read
			verifyPoint(id)
		case op < 93: // maintenance: GC
			e.RunGC()
		case op < 95: // maintenance: checkpoint
			if _, err := e.Checkpoint(); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
		case op < 96: // maintenance: compaction + eviction round trip
			e.RunGC()
			var err error
			if rng.Intn(2) == 0 {
				_, err = e.CompactFull()
			} else {
				// A compaction of some sealed segments, the others left as
				// they are: the engine's own compacts a nearly dead set.
				_, err = e.compact(func() ([]uint16, error) {
					var set []uint16
					for _, seg := range e.log.SealedSegments() {
						if rng.Intn(2) == 0 {
							set = append(set, seg)
						}
					}
					return set, nil
				})
			}
			if err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
			if _, err := e.Evict("users"); err != nil {
				t.Fatalf("step %d: evict: %v", step, err)
			}
			verifyFull(fmt.Sprintf("step %d post-compaction", step))
		case op < 97: // crash + recovery
			manifest := e.ManifestID()
			e.Close()
			e2, _, err := Recover(Config{Service: svc, Workers: 4, SegmentSize: 1 << 18, GCEveryNCommits: 16},
				manifest, RecoverOptions{ReplayThreads: 1 + rng.Intn(4)})
			if err != nil {
				t.Fatalf("step %d: recover: %v", step, err)
			}
			e = e2
			tbl, err = e.Table("users")
			if err != nil {
				t.Fatal(err)
			}
			verifyFull(fmt.Sprintf("step %d post-recovery", step))
		default: // full scan check
			verifyFull(fmt.Sprintf("step %d", step))
		}
	}
	verifyFull("final")
	e.Close()
}

// newTestService builds a zero-latency SRSS deployment for model checking.
func newTestService() *srss.Service {
	return srss.New(srss.Config{})
}
