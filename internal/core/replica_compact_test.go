package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// Follower catch-up across full compaction. CompactFull fences the sealed
// segment set, rewrites live versions into fresh segments, and drops the old
// ones -- including segments a mid-catch-up follower still holds scan
// progress for. The follower must observe wal.ErrSegmentDropped, forget its
// per-segment offset, restart from the refreshed directory, and converge
// with zero lost rows (the rewrites carry their original CSNs, so the
// newest-CSN-wins apply discipline makes the re-scan idempotent).

// TestReplicaCatchUpAcrossCompactFull forces the race deterministically:
// the test hook fires between the follower's directory refresh and its
// first segment scan, and runs a full primary-side compaction right there.
// Every sealed segment in the follower's (now stale) directory view is gone
// by the time the scan opens it.
func TestReplicaCatchUpAcrossCompactFull(t *testing.T) {
	primary := testEngine(t, func(c *Config) { c.SegmentSize = 4096 })
	tbl := mustTable(t, primary, usersSchema())
	for i := int64(0); i < 100; i++ {
		insertUser(t, primary, tbl, int(i%4), i, "seed", i)
	}

	rep, _, err := OpenReplica(Config{Service: primary.Service(), Workers: 2, SegmentSize: 4096},
		primary.ManifestID(), RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}

	// More writes after the replica spawned: with 4 KiB segments these
	// rotate through several fresh segments the replica is NOT fenced on,
	// so the next catch-up records per-segment progress for them.
	for i := int64(100); i < 300; i++ {
		insertUser(t, primary, tbl, int(i%4), i, "live", i*2)
	}
	// A few updates and a delete so compaction rewrites version chains,
	// not just single inserts.
	for i := int64(0); i < 10; i++ {
		tx, err := primary.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		rid, _, err := tx.GetByKey(tbl, 0, I(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := tx.Delete(tbl, rid); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Update(tbl, rid, Row{I(i), S("touched"), I(i + 1000)}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}

	// A third write wave with NO catch-up in between: it appends into (and
	// seals past) segments the replica holds partial progress on. A fully
	// caught-up segment early-returns its scan without reading, so only
	// partial progress makes the next pass actually touch the dropped
	// backing PLog mid-scan.
	for i := int64(300); i < 500; i++ {
		insertUser(t, primary, tbl, int(i%4), i, "tail", i*3)
	}

	// Snapshot the follower's progress table and the primary's segment set
	// before the compaction so we can prove the dropped-segment path ran.
	rep.mu.Lock()
	preApplied := make(map[uint16]int64, len(rep.offsets))
	for seg, off := range rep.offsets {
		preApplied[seg] = off
	}
	rep.mu.Unlock()
	segsBefore := make(map[uint16]bool)
	for _, s := range primary.log.Segments() {
		segsBefore[s] = true
	}

	// Arm the hook: the first segment scan of the next CatchUp pass runs a
	// full compaction on the primary. The pass's directory view predates
	// the drop, so the scans that follow hit the deleted backing PLogs.
	var once sync.Once
	var stats CompactionStats
	var cerr error
	testHookBeforeSegScan = func(uint16) {
		once.Do(func() { stats, cerr = primary.CompactFull() })
	}
	defer func() { testHookBeforeSegScan = nil }()

	if _, err := rep.CatchUp(); err != nil {
		t.Fatalf("catch-up across compaction: %v", err)
	}
	testHookBeforeSegScan = nil
	if cerr != nil {
		t.Fatalf("compaction: %v", cerr)
	}
	if stats.SegmentsDropped == 0 {
		t.Fatal("compaction dropped no segments; test exercised nothing")
	}

	// The ErrSegmentDropped branch deletes the segment's progress entry;
	// a successful scan would have advanced it instead. At least one
	// segment we held progress on must have been dropped and forgotten.
	segsAfter := make(map[uint16]bool)
	for _, s := range primary.log.Segments() {
		segsAfter[s] = true
	}
	rep.mu.Lock()
	forgotten := 0
	for seg := range preApplied {
		if segsBefore[seg] && !segsAfter[seg] {
			if _, still := rep.offsets[seg]; !still {
				forgotten++
			}
		}
	}
	rep.mu.Unlock()
	if forgotten == 0 {
		t.Fatal("no dropped segment was forgotten; ErrSegmentDropped path not exercised")
	}

	// Restart from the directory: subsequent passes pick up the rewrite
	// segments and converge with zero lost rows.
	for i := 0; i < 50; i++ {
		n, err := rep.CatchUp()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	want := snapshotTable(t, primary, "users")
	got := snapshotTable(t, rep.Engine(), "users")
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replica diverged after compaction: %d rows vs primary %d", len(got), len(want))
	}
	if len(want) != 499 { // 500 inserts, one delete
		t.Fatalf("primary has %d rows, want 499", len(want))
	}
}

// TestReplicaCompactionSoak races a continuous writer, a compaction loop,
// and a follower catch-up loop (seeded; run under -race). CatchUp must never
// surface an error -- dropped segments are handled internally -- and once
// the dust settles the replica must hold exactly the primary's rows.
func TestReplicaCompactionSoak(t *testing.T) {
	const seedRows, liveRows = 200, 1500

	primary := testEngine(t, func(c *Config) { c.SegmentSize = 8192; c.Workers = 8 })
	tbl := mustTable(t, primary, usersSchema())
	for i := int64(0); i < seedRows; i++ {
		insertUser(t, primary, tbl, int(i%4), i, "seed", i)
	}
	rep, _, err := OpenReplica(Config{Service: primary.Service(), Workers: 2, SegmentSize: 8192},
		primary.ManifestID(), RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: worker 5 exclusively, seeded jitter in the values so reruns
	// are reproducible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		rng := rand.New(rand.NewSource(0x5eed))
		for i := int64(seedRows); i < seedRows+liveRows; i++ {
			tx, err := primary.Begin(5)
			if err != nil {
				t.Errorf("writer begin: %v", err)
				return
			}
			if _, err := tx.Insert(tbl, Row{I(i), S(fmt.Sprintf("w%d", rng.Intn(1000))), I(i)}); err != nil {
				t.Errorf("writer insert %d: %v", i, err)
				tx.Abort()
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("writer commit %d: %v", i, err)
				return
			}
		}
	}()

	// Compactor: full compactions back-to-back while the writer runs, so
	// segments the follower is mid-scan on keep vanishing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := primary.CompactFull(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	// Follower: catch up continuously until the writer finishes.
loop:
	for {
		select {
		case <-writerDone:
			break loop
		default:
		}
		if _, err := rep.CatchUp(); err != nil {
			t.Fatalf("catch-up during soak: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce: one final compaction, then drain until two consecutive
	// passes apply nothing.
	if _, err := primary.CompactFull(); err != nil {
		t.Fatal(err)
	}
	idle := 0
	for i := 0; i < 200 && idle < 2; i++ {
		n, err := rep.CatchUp()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			idle++
		} else {
			idle = 0
		}
	}
	want := snapshotTable(t, primary, "users")
	got := snapshotTable(t, rep.Engine(), "users")
	if len(want) != seedRows+liveRows {
		t.Fatalf("primary has %d rows, want %d", len(want), seedRows+liveRows)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replica lost rows across compactions: %d vs primary %d", len(got), len(want))
	}
}
