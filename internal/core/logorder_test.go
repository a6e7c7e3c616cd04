package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// twoPCInsert inserts row on worker and takes it through prepare, the
// decision, and, for every third gtid, Forget.
func twoPCInsert(e *Engine, tbl *Table, worker int, gtid string, row Row, commit, forget bool) error {
	tx, err := e.Begin(worker)
	if err != nil {
		return err
	}
	if _, err := tx.Insert(tbl, row); err != nil {
		_ = tx.Abort()
		return err
	}
	if _, err := tx.prepare(gtid); err != nil {
		return err
	}
	if _, err := resolveWait(e, gtid, commit); err != nil {
		return err
	}
	if forget {
		return forgetWait(e, gtid)
	}
	return nil
}

// TestStreamIsInCSNOrder: a CSN is drawn under its stream's enqueue lock, so
// a stream holds its records in CSN order -- also when a commit is delayed
// between its draw and its enqueue, and with 2PC decisions and imported rows
// drawing theirs on the same stream. Every record with a drawn CSN (prepares
// and forgets carry 0) must lie behind no higher one.
func TestStreamIsInCSNOrder(t *testing.T) {
	ch := chaos.New(7)
	svc := srss.New(srss.Config{Chaos: ch})
	e, err := Open(Config{Name: "order-test", Service: svc, Workers: 4, LogStreams: 1, SegmentSize: 1 << 20, GCEveryNCommits: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	tbl := mustTable(t, e, usersSchema())
	ch.Arm(chaos.Rule{Site: SiteCommitDrawn, Action: chaos.Delay, Prob: 0.1, Delay: 100 * time.Microsecond})
	const perWorker = 1000
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := int64(w*perWorker + i)
				row := Row{I(id), S("order"), I(id)}
				if i%25 == 0 {
					gtid := fmt.Sprintf("order-%d-%d", w, i)
					if err := twoPCInsert(e, tbl, w, gtid, row, i%50 == 0, i%75 == 0); err != nil {
						errs <- fmt.Errorf("%s: %w", gtid, err)
						return
					}
					continue
				}
				if i%25 == 12 {
					if _, err := e.ImportRow(tbl, row); err != nil {
						errs <- fmt.Errorf("import %d: %w", id, err)
						return
					}
					continue
				}
				tx, err := e.Begin(w)
				if err == nil {
					_, err = tx.Insert(tbl, row)
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ch.Disarm(SiteCommitDrawn)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var maxCSN uint64
	records, inversions := 0, 0
	for _, seg := range e.log.Segments() { // one stream: its segments in order
		if _, err := e.log.ScanSegmentFrom(seg, 0, func(txn []wal.Entry) bool {
			csn := txn[0].CSN
			if csn == 0 {
				return true
			}
			records++
			if csn < maxCSN {
				inversions++
			}
			maxCSN = max(maxCSN, csn)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if records < 4*perWorker {
		t.Fatalf("scanned %d records with a drawn CSN, want >= %d", records, 4*perWorker)
	}
	if inversions != 0 {
		t.Fatalf("%d of %d records lie behind a higher CSN on their stream", inversions, records)
	}
}

// TestCheckpointUnderEveryAppendPath: a checkpoint's barrier (rotate, read
// the clock, flush) holds for everything that appends to the log -- commits
// on every worker, ImportRow, 2PC prepares, decisions and forgets -- while
// they run. Each round crashes right after a checkpoint taken with all of
// them in flight, so recovery reads that checkpoint's image and replays only
// the tail written after it; it must return every acknowledged write.
func TestCheckpointUnderEveryAppendPath(t *testing.T) {
	for _, streams := range []int{1, 4} {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			for round := 0; round < 4; round++ {
				checkpointUnderWriters(t, streams)
			}
		})
	}
}

// checkpointUnderWriters runs every append path until three checkpoints
// taken meanwhile have returned, then recovers from the last of them and
// compares the recovered table with what the writers were acknowledged.
func checkpointUnderWriters(t *testing.T, streams int) {
	e := testEngine(t, func(c *Config) { c.Workers = 6; c.LogStreams = streams; c.GCEveryNCommits = 16 })
	tbl := mustTable(t, e, usersSchema())
	stop := make(chan struct{})
	var writers sync.WaitGroup
	var imported atomic.Int64
	errs := make(chan error, 6)
	run := func(name string, op func(i int64) error) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(i); err != nil {
					errs <- fmt.Errorf("%s %d: %w", name, i, err)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		run(fmt.Sprintf("worker %d", w), func(i int64) error {
			id := int64(w)*1_000_000 + i
			tx, err := e.Begin(w)
			if err != nil {
				return err
			}
			switch i % 6 {
			case 2, 5:
				// Update (2) or delete (5) the row two back.
				var rid RID
				if rid, _, err = tx.GetByKey(tbl, 0, I(id-2)); err == nil {
					if i%6 == 2 {
						err = tx.Update(tbl, rid, Row{I(id - 2), S("moved"), I(-id)})
					} else {
						err = tx.Delete(tbl, rid)
					}
				}
			default:
				_, err = tx.Insert(tbl, Row{I(id), S(fmt.Sprintf("w%d", w)), I(id)})
			}
			if err != nil {
				_ = tx.Abort()
				return err
			}
			return tx.Commit()
		})
	}
	run("import", func(i int64) error {
		_, err := e.ImportRow(tbl, Row{I(10_000_000 + i), S("imported"), I(i)})
		imported.Add(1)
		return err
	})
	run("2pc", func(i int64) error {
		row := Row{I(20_000_000 + i), S("prepared"), I(i)}
		return twoPCInsert(e, tbl, 4, fmt.Sprintf("ckpt-%d", i), row, i%4 != 3, i%3 == 0)
	})
	for deadline := time.Now().Add(10 * time.Second); imported.Load() < 20 && len(errs) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	var ckptErr error
	for c := 0; c < 3 && ckptErr == nil; c++ {
		_, ckptErr = e.Checkpoint()
	}
	// Crash point: the last checkpoint has just returned, the writers were
	// in flight throughout it, and what they did after it is the tail.
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ckptErr != nil {
		t.Fatal(ckptErr)
	}
	if imported.Load() < 20 {
		t.Fatalf("%d imports before the checkpoints, want >= 20", imported.Load())
	}
	want := snapshotTable(t, e, "users")
	e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	if stats.CheckpointCSN == 0 {
		t.Fatal("recovery used no checkpoint")
	}
	got := snapshotTable(t, e2, "users")
	for id, row := range want {
		if got[id] != row {
			t.Fatalf("id %d: recovered %v, want %v (%d rows recovered, %d acknowledged)", id, got[id], row, len(got), len(want))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
}

// TestCommitAfterCloseIsRefused: a commit the closed log refuses still has
// its CSN drawn and stamped, so it fails with the log's ErrClosed, and a
// snapshot reader that meets its row returns rather than waiting on a CSN
// that would never come.
func TestCommitAfterCloseIsRefused(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "before", 1)
	writer := begin(t, e, 1)
	if _, err := writer.Insert(tbl, Row{I(2), S("after"), I(2)}); err != nil {
		t.Fatal(err)
	}
	reader := begin(t, e, 2)
	e.Close()
	if err := writer.Commit(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("commit after Close: %v, want %v", err, wal.ErrClosed)
	}
	read := make(chan error, 1)
	go func() {
		_, _, err := reader.GetByKey(tbl, 0, I(2))
		read <- err
	}()
	select {
	case err := <-read:
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("reader of the refused commit's row: %v, want %v", err, ErrNotFound)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a reader of the refused commit's row is still waiting")
	}
}
