package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hiengine/internal/srss"
)

// snapshotTable captures id -> (name, balance) of all visible rows.
func snapshotTable(t *testing.T, e *Engine, name string) map[int64][2]interface{} {
	t.Helper()
	tbl, err := e.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	out := make(map[int64][2]interface{})
	if err := tx.ScanKey(tbl, 0, nil, nil, func(_ RID, row Row) bool {
		out[row[0].Int()] = [2]interface{}{row[1].Str(), row[2].Int()}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func recoverEngine(t *testing.T, e *Engine, opt RecoverOptions) (*Engine, *RecoveryStats) {
	t.Helper()
	manifestID := e.ManifestID()
	svc := e.Service()
	e.Close() // simulate crash after draining in-flight I/O
	e2, stats, err := Recover(Config{Service: svc, Workers: 16, SegmentSize: 1 << 20}, manifestID, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	return e2, stats
}

func TestRecoveryBasicEquivalence(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	for i := int64(0); i < 200; i++ {
		insertUser(t, e, tbl, int(i%8), i, fmt.Sprintf("user-%d", i), i*3)
	}
	// Mix in updates and deletes.
	for i := int64(0); i < 200; i += 4 {
		tx, _ := e.Begin(int(i % 8))
		rid, _, err := tx.GetByKey(tbl, 0, I(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			if err := tx.Delete(tbl, rid); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tx.Update(tbl, rid, Row{I(i), S(fmt.Sprintf("upd-%d", i)), I(i * 7)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
	}
	want := snapshotTable(t, e, "users")

	e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 4})
	got := snapshotTable(t, e2, "users")
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("row %d: got %v want %v", id, got[id], w)
		}
	}
	if stats.RecordsScanned == 0 {
		t.Fatal("no records replayed")
	}
	// New transactions work after recovery (CSN advanced past replay).
	e2tbl, _ := e2.Table("users")
	tx, err := e2.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(e2tbl, Row{I(10001), S("post-recovery"), I(1)}); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	commit(t, tx)
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	for i := int64(0); i < 100; i++ {
		insertUser(t, e, tbl, 0, i, "pre-ckpt", i)
	}
	csn, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if csn == 0 {
		t.Fatal("checkpoint CSN zero")
	}
	// Post-checkpoint activity.
	for i := int64(100); i < 150; i++ {
		insertUser(t, e, tbl, 0, i, "post-ckpt", i)
	}
	for i := int64(0); i < 20; i++ {
		tx, _ := e.Begin(0)
		rid, _, _ := tx.GetByKey(tbl, 0, I(i))
		tx.Update(tbl, rid, Row{I(i), S("updated"), I(-i)})
		commit(t, tx)
	}
	want := snapshotTable(t, e, "users")

	e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	if stats.CheckpointEntries == 0 {
		t.Fatal("checkpoint not used")
	}
	got := snapshotTable(t, e2, "users")
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("row %d: got %v want %v", id, got[id], w)
		}
	}
}

func TestRecoveryParallelReplayOrderInsensitive(t *testing.T) {
	// Property: the recovered state is identical whatever the replay
	// parallelism, because replay resolves conflicts by newest-CSN-wins
	// CAS (Section 4.3).
	build := func() (*Engine, map[int64][2]interface{}) {
		e := testEngine(t, func(c *Config) { c.SegmentSize = 4096 }) // many segments
		tbl := mustTable(t, e, usersSchema())
		for i := int64(0); i < 50; i++ {
			insertUser(t, e, tbl, int(i%8), i, "v0", 0)
		}
		// Heavy update traffic across workers => records for the same
		// RID scattered across many per-stream segments.
		for round := int64(1); round <= 10; round++ {
			for i := int64(0); i < 50; i += 5 {
				tx, _ := e.Begin(int((i + round) % 8))
				rid, _, err := tx.GetByKey(tbl, 0, I(i))
				if err != nil {
					t.Fatal(err)
				}
				tx.Update(tbl, rid, Row{I(i), S(fmt.Sprintf("v%d", round)), I(round)})
				commit(t, tx)
			}
		}
		return e, snapshotTable(t, e, "users")
	}

	e, want := build()
	for _, threads := range []int{1, 4, 8} {
		manifestID := e.ManifestID()
		svc := e.Service()
		e2, _, err := Recover(Config{Service: svc, Workers: 16, SegmentSize: 1 << 20}, manifestID, RecoverOptions{ReplayThreads: threads})
		if err != nil {
			t.Fatal(err)
		}
		got := snapshotTable(t, e2, "users")
		if len(got) != len(want) {
			t.Fatalf("threads=%d: %d rows, want %d", threads, len(got), len(want))
		}
		for id, w := range want {
			if got[id] != w {
				t.Fatalf("threads=%d row %d: got %v want %v", threads, id, got[id], w)
			}
		}
		e2.Close()
	}
	e.Close()
}

func TestRecoveryAfterCompaction(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.GCEveryNCommits = 0 })
	tbl := mustTable(t, e, usersSchema())
	for i := int64(0); i < 50; i++ {
		insertUser(t, e, tbl, 0, i, "x", i)
	}
	for round := 0; round < 5; round++ {
		for i := int64(0); i < 50; i += 3 {
			tx, _ := e.Begin(0)
			rid, _, _ := tx.GetByKey(tbl, 0, I(i))
			tx.Update(tbl, rid, Row{I(i), S("y"), I(int64(round) * 100)})
			commit(t, tx)
		}
	}
	e.RunGC()
	want := snapshotTable(t, e, "users")
	segsBefore := len(e.Log().Segments())
	bytesBefore := e.Log().TotalBytes()

	cs, err := e.CompactFull()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsDropped == 0 || cs.RecordsRewritten == 0 {
		t.Fatalf("compaction did nothing: %+v", cs)
	}
	_ = segsBefore
	_ = bytesBefore

	// Reads still work post-compaction (addresses updated).
	if n, err := e.Evict("users"); err != nil || n == 0 {
		t.Fatalf("evict: %d %v", n, err)
	}
	got := snapshotTable(t, e, "users")
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("post-compaction row %d: got %v want %v", id, got[id], w)
		}
	}

	// Recovery from the compacted log reproduces the same state.
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	got2 := snapshotTable(t, e2, "users")
	if len(got2) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got2), len(want))
	}
	for id, w := range want {
		if got2[id] != w {
			t.Fatalf("post-compaction recovery row %d: got %v want %v", id, got2[id], w)
		}
	}
}

func TestCompactionReclaimsSpace(t *testing.T) {
	e := testEngine(t, func(c *Config) {
		c.SegmentSize = 8192
		c.GCEveryNCommits = 0
	})
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "hot", 0)
	// Overwrite one row many times: the log fills with dead versions.
	for i := int64(1); i <= 500; i++ {
		tx, _ := e.Begin(0)
		if err := tx.Update(tbl, rid, Row{I(1), S("hot"), I(i)}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	e.RunGC()
	logBytes := func() int64 {
		var total int64
		for _, seg := range e.Log().Segments() {
			if id, ok := e.Log().Directory().Lookup(seg); ok {
				if p, err := e.Service().Open(id); err == nil {
					total += p.Size()
				}
			}
		}
		return total
	}
	bytesBefore := logBytes()
	cs, err := e.CompactFull()
	if err != nil {
		t.Fatal(err)
	}
	bytesAfter := logBytes()
	if bytesAfter >= bytesBefore {
		t.Fatalf("compaction did not reclaim log space: %d -> %d bytes", bytesBefore, bytesAfter)
	}
	if cs.SegmentsDropped == 0 {
		t.Fatalf("no segments dropped: %+v", cs)
	}
	if cs.BytesReclaimed <= 0 {
		t.Fatalf("no bytes reclaimed: %+v", cs)
	}
	// Value intact.
	tx, _ := e.Begin(0)
	row, err := tx.Get(tbl, rid)
	if err != nil || row[2].Int() != 500 {
		t.Fatalf("post-compaction value: %v %v", row, err)
	}
	commit(t, tx)
}

func TestRecoverRequiresService(t *testing.T) {
	if _, _, err := Recover(Config{}, srss.PLogID{}, RecoverOptions{}); err == nil {
		t.Fatal("Recover without service succeeded")
	}
}

func TestRecoverUnknownManifest(t *testing.T) {
	svc := srss.New(srss.Config{})
	if _, _, err := Recover(Config{Service: svc}, srss.PLogID{1, 2, 3}, RecoverOptions{}); err == nil {
		t.Fatal("Recover with bogus manifest succeeded")
	}
}

func TestLostUncommittedNotRecovered(t *testing.T) {
	// A transaction that never committed must not surface after recovery
	// (redo-only log contains only committed data).
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "committed", 1)
	tx, _ := e.Begin(1)
	if _, err := tx.Insert(tbl, Row{I(2), S("uncommitted"), I(2)}); err != nil {
		t.Fatal(err)
	}
	// Crash without commit: tx simply never reaches the log.
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	got := snapshotTable(t, e2, "users")
	if len(got) != 1 {
		t.Fatalf("recovered %d rows, want 1: %v", len(got), got)
	}
	if _, ok := got[2]; ok {
		t.Fatal("uncommitted row recovered")
	}
	_ = errors.Is
}

// TestRebuildReadsTheLogThroughWindows: the index rebuild leaves every row's
// payload cached and aliasing the log's storage, reads the log in windows
// (far fewer storage reads than rows), and a second rebuild -- every payload
// now resident -- reads nothing. The same recovery over storage in 64-byte
// chunks, where nearly every record straddles one, recovers the same rows.
func TestRebuildReadsTheLogThroughWindows(t *testing.T) {
	for _, chunk := range []int{0, 64} { // 0: the default, 256 KiB
		svc := srss.New(srss.Config{ChunkSize: chunk})
		e := testEngine(t, func(c *Config) { c.Service = svc })
		tbl := mustTable(t, e, usersSchema())
		const rows = 3000
		for i := int64(0); i < rows; i++ {
			insertUser(t, e, tbl, int(i%4), i, fmt.Sprintf("user-%d", i%97), i)
			if i == rows/2 {
				if _, err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := snapshotTable(t, e, "users")
		before := svc.Stats().Reads.Load()
		e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
		reads := svc.Stats().Reads.Load() - before
		if got := snapshotTable(t, e2, "users"); len(got) != rows || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("chunk %d: recovered %d rows, want the %d before the crash", chunk, len(got), rows)
		}
		if stats.IndexKeys != 2*rows || stats.WindowReads == 0 || stats.WindowReads > reads ||
			stats.CheckpointLoadDuration <= 0 || stats.CheckpointLoadDuration > stats.ReplayDuration {
			t.Errorf("chunk %d: stats %+v with %d storage reads", chunk, *stats, reads)
		}
		if chunk == 0 && reads > rows/10 {
			t.Errorf("recovery of %d rows issued %d storage reads, want a few per log chunk", rows, reads)
		}
		tbl2, _ := e2.Table("users")
		tbl2.rows.Range(func(rid RID, v *Version) bool {
			d, ok := v.resident()
			if !ok {
				t.Fatalf("chunk %d: rid %v: payload not cached by the rebuild", chunk, rid)
			}
			if rec, err := e2.log.ReadRecord(v.Addr()); err != nil || !bytes.Equal(rec.Payload, d) {
				t.Fatalf("chunk %d: rid %v: cached payload is not the log's (%v)", chunk, rid, err)
			} else if chunk == 0 && &rec.Payload[0] != &d[0] {
				t.Fatalf("rid %v: cached payload is a copy of the log's bytes", rid)
			}
			return true
		})
		windows := e2.log.WindowReads()
		if _, err := e2.RebuildIndexes(2); err != nil {
			t.Fatal(err)
		}
		if got := e2.log.WindowReads() - windows; got != 0 {
			t.Errorf("chunk %d: a rebuild over resident payloads read the log %d times", chunk, got)
		}
	}
}
