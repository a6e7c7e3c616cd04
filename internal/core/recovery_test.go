package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
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

// checkIndexes checks every index of every table of a just-recovered engine
// against the rows: the (key, RID) pairs an index holds are exactly the keys
// the rows' payloads derive, one per row and index.
func checkIndexes(t *testing.T, e *Engine) {
	t.Helper()
	for _, tbl := range e.tablesByID {
		want := make([]map[string]RID, len(tbl.indexes))
		for i := range want {
			want[i] = map[string]RID{}
		}
		var view RowView
		tbl.rows.Range(func(rid RID, v *Version) bool {
			p, err := v.payload(e)
			if err == nil {
				_, err = view.Reset(p)
			}
			if err != nil {
				t.Fatalf("table %s rid %v: %v", tbl.Schema.Name, rid, err)
			}
			for i := range tbl.indexes {
				k, err := tbl.viewIndexKeyAppend(nil, i, &view, rid)
				if err != nil {
					t.Fatal(err)
				}
				want[i][string(k)] = rid
			}
			return true
		})
		for i, ix := range tbl.indexes {
			got := map[string]RID{}
			if err := ix.Scan(nil, nil, func(k []byte, rid uint64) bool {
				got[string(k)] = RID(rid)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want[i]) {
				t.Errorf("table %s index %s: %d keys, its rows derive %d", tbl.Schema.Name, tbl.Schema.Indexes[i].Name, len(got), len(want[i]))
			}
			for k, rid := range want[i] {
				if g, ok := got[k]; !ok || g != rid {
					t.Fatalf("table %s index %s: key %x of rid %v maps to %v (present %v)", tbl.Schema.Name, tbl.Schema.Indexes[i].Name, k, rid, g, ok)
				}
			}
		}
	}
}

// TestRebuildReadsTheLogThroughWindows: recovery reads the log's tail in
// windows (far fewer storage reads than rows) and no checkpointed row at all:
// a row the image covers stays unread until its first read, which is one
// storage read, checksum-verified, whose payload then aliases the log. The
// tail's rows come back aliasing the log's storage. The same recovery over
// storage in 64-byte chunks, where nearly every record straddles one,
// recovers the same rows and indexes.
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
		if stats.IndexKeys != 2*rows || stats.ImageKeys != 2*stats.CheckpointEntries || stats.CheckpointEntries != rows/2+1 ||
			stats.WindowReads == 0 || stats.WindowReads > reads ||
			stats.CheckpointLoadDuration <= 0 || stats.CheckpointLoadDuration > stats.ReplayDuration {
			t.Errorf("chunk %d: stats %+v with %d storage reads", chunk, *stats, reads)
		}
		if chunk == 0 && reads > rows/20 {
			t.Errorf("recovery of %d rows issued %d storage reads, want a few per log chunk of the tail", rows, reads)
		}
		tbl2, _ := e2.Table("users")
		var cold *Version
		stubs := 0
		tbl2.rows.Range(func(rid RID, v *Version) bool {
			d, ok := v.resident()
			if v.flags.Load()&flagImage != 0 {
				if ok {
					t.Fatalf("chunk %d: rid %v: recovery read a checkpointed row", chunk, rid)
				}
				stubs++
				cold = v
				return true
			}
			if !ok {
				t.Fatalf("chunk %d: rid %v: a replayed row is not resident", chunk, rid)
			}
			if rec, err := e2.log.ReadRecord(v.Addr()); err != nil || !bytes.Equal(rec.Payload, d) {
				t.Fatalf("chunk %d: rid %v: payload is not the log's (%v)", chunk, rid, err)
			} else if chunk == 0 && &rec.Payload[0] != &d[0] {
				t.Fatalf("rid %v: payload is a copy of the log's bytes", rid)
			}
			return true
		})
		if int64(stubs) != stats.CheckpointEntries {
			t.Fatalf("chunk %d: %d rows still at their stubs, want the image's %d", chunk, stubs, stats.CheckpointEntries)
		}
		if chunk == 0 {
			before := svc.Stats().Reads.Load()
			p, err := cold.payload(e2)
			if err != nil {
				t.Fatal(err)
			}
			if got := svc.Stats().Reads.Load() - before; got != 1 {
				t.Errorf("a cold read cost %d storage reads, want 1", got)
			}
			if d, ok := cold.resident(); !ok || &d[0] != &p[0] {
				t.Error("a cold read left the payload uncached")
			}
		}
		if got := snapshotTable(t, e2, "users"); len(got) != rows || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("chunk %d: recovered %d rows, want the %d before the crash", chunk, len(got), rows)
		}
		checkIndexes(t, e2)
	}
}

// TestRecoveryEquivalenceUnderWriters: a checkpoint taken while writers
// insert, update key columns -- the primary key and by_name's non-unique
// name -- and delete, followed by more of the same before the crash,
// recovers indexes whose (key, RID) pairs are exactly those the recovered
// rows derive, and rows that read back as they were.
func TestRecoveryEquivalenceUnderWriters(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.Workers = 4; c.LogStreams = 2; c.GCEveryNCommits = 16 })
	tbl := mustTable(t, e, usersSchema())
	const rows = 2000
	for i := int64(0); i < rows; i++ {
		insertUser(t, e, tbl, int(i%4), i, fmt.Sprintf("user-%d", i%37), i)
	}
	// Writer w owns the ids == w mod 3 and moves each row it touches to an
	// id of its own above rows, with a name shared with other rows.
	churn := func(w int, round int64) error {
		for i := int64(w); i < rows; i += 3 * 7 {
			tx, err := e.Begin(w)
			if err != nil {
				return err
			}
			id := i + round*rows
			rid, row, err := tx.GetByKey(tbl, 0, I(id))
			if err != nil {
				tx.Abort()
				return fmt.Errorf("id %d: %w", id, err)
			}
			switch {
			case i%2 == 0:
				err = tx.Update(tbl, rid, Row{I(id + rows), S(fmt.Sprintf("moved-%d", i%11)), row[2]})
			case i%5 == 1:
				err = tx.Update(tbl, rid, Row{I(id + rows), row[1], I(-i)})
			default:
				if err = tx.Delete(tbl, rid); err == nil {
					_, err = tx.Insert(tbl, Row{I(id + rows), S("again"), I(i)})
				}
			}
			if err != nil {
				tx.Abort()
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}
	for round := int64(0); round < 2; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs <- churn(w, round)
			}(w)
		}
		if round == 0 {
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	insertUser(t, e, tbl, 3, 10*rows, "user-1", 1)
	want := snapshotTable(t, e, "users")
	e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 3})
	if stats.ImageKeys == 0 || stats.IndexKeys <= stats.ImageKeys {
		t.Fatalf("keys from the image %d of %d: want both sources used", stats.ImageKeys, stats.IndexKeys)
	}
	if got := snapshotTable(t, e2, "users"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %d rows differently from the %d before the crash", len(got), len(want))
	}
	checkIndexes(t, e2)
	tbl2, _ := e2.Table("users")
	tx := begin(t, e2, 0)
	defer tx.Abort()
	n := 0
	if err := tx.ScanPrefix(tbl2, 1, []Value{S("again")}, func(_ RID, row Row) bool {
		if row[1].Str() != "again" {
			t.Errorf("by_name scan of \"again\" returned %v", row)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	wantN := 0
	for _, r := range want {
		if r[0] == "again" {
			wantN++
		}
	}
	if n != wantN || n == 0 {
		t.Fatalf("by_name finds %d rows named \"again\", want %d", n, wantN)
	}
}

// TestRecoveryIndexesInterleavedRuns: recovery's workers insert the index
// keys of the checkpoint image, and then of the tail, through a hint that
// remembers the bottom nodes they last filled. The image here holds a table
// whose rows alternate between two ascending key ranges -- its primary keys
// and its non-unique secondary's keys both take turns between two bottom
// nodes -- and a table of random keys, which a hint seldom helps. After the
// crash every key is found, each index holds exactly the keys its rows
// derive, and the counts of keys from the image and in all are exact.
func TestRecoveryIndexesInterleavedRuns(t *testing.T) {
	e := testEngine(t)
	users := mustTable(t, e, usersSchema())
	rnd := mustTable(t, e, &Schema{
		Name:    "rnd",
		Columns: []Column{{Name: "id", Kind: KindInt}, {Name: "v", Kind: KindInt}},
		Indexes: []IndexDef{{Name: "pk", Columns: []int{0}, Unique: true}},
	})
	const pairs, tail = 2000, 300
	rng := rand.New(rand.NewSource(1))
	var rndKeys []int64
	load := func(from, to int64) {
		for i := from; i < to; i++ {
			tx := begin(t, e, int(i%4))
			for _, id := range []int64{i, 1<<32 + i} {
				if _, err := tx.Insert(users, Row{I(id), S(fmt.Sprintf("n%08d", id)), I(i)}); err != nil {
					t.Fatal(err)
				}
			}
			k := rng.Int63()
			if _, err := tx.Insert(rnd, Row{I(k), I(i)}); err != nil {
				t.Fatal(err)
			}
			rndKeys = append(rndKeys, k)
			commit(t, tx)
		}
	}
	load(0, pairs)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	load(pairs, pairs+tail)

	e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	imageRows := int64(3 * pairs) // users' two per pair, with two keys each; rnd's one
	if stats.ImageKeys != 2*2*pairs+pairs || stats.IndexKeys != stats.ImageKeys+(2*2+1)*tail || stats.CheckpointEntries != imageRows {
		t.Fatalf("recovered %d keys, %d from the image of %d entries; want %d, %d, %d",
			stats.IndexKeys, stats.ImageKeys, stats.CheckpointEntries, 5*(pairs+tail), 5*pairs, imageRows)
	}
	checkIndexes(t, e2) // by_name's keys, exactly
	users2, _ := e2.Table("users")
	rnd2, _ := e2.Table("rnd")
	tx := begin(t, e2, 0)
	defer tx.Abort()
	for i := int64(0); i < pairs+tail; i++ {
		for _, id := range []int64{i, 1<<32 + i} {
			if _, row, err := tx.GetByKey(users2, 0, I(id)); err != nil || row[2].Int() != i {
				t.Fatalf("users key %d: %v %v", id, row, err)
			}
		}
		if _, row, err := tx.GetByKey(rnd2, 0, I(rndKeys[i])); err != nil || row[1].Int() != i {
			t.Fatalf("rnd key %d: %v %v", rndKeys[i], row, err)
		}
	}
}
