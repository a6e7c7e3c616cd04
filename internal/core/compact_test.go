package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// metric reads one metric of e's registry, gauge functions included.
func metric(e *Engine, name string) int64 {
	for _, m := range e.Obs().Snapshot().Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// deadLogConfig is a one-stream engine with small segments, so that a few
// thousand rows fill several, and GC only when a test runs it.
func deadLogConfig(svc *srss.Service) Config {
	return Config{Name: "deadlog", Service: svc, Workers: 2, LogStreams: 1, SegmentSize: 1 << 16, GCEveryNCommits: 1 << 30}
}

// preloadUsers inserts rows [0, n) in transactions of 100 on worker 0: many
// records per transaction, most of them continuations.
func preloadUsers(t *testing.T, e *Engine, tbl *Table, n int64) {
	t.Helper()
	for i := int64(0); i < n; i += 100 {
		tx := begin(t, e, 0)
		for j := i; j < min(i+100, n); j++ {
			if _, err := tx.Insert(tbl, Row{I(j), S(fmt.Sprintf("user-%d", j)), I(j)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
	}
}

// updateUsers sets the balance of every row in ids, one transaction each.
func updateUsers(t *testing.T, e *Engine, tbl *Table, ids []int64, bal int64) {
	t.Helper()
	for _, id := range ids {
		tx := begin(t, e, 0)
		if ok, err := tx.UpdateColumns(tbl, 0, []Value{I(id)}, nil, []ColValue{{Col: 2, Val: I(bal)}}); err != nil || !ok {
			t.Fatal(ok, err)
		}
		commit(t, tx)
	}
}

func span(lo, hi int64) []int64 {
	var ids []int64
	for i := lo; i < hi; i++ {
		ids = append(ids, i)
	}
	return ids
}

// waitCompactions waits for e to have completed n compactions.
func waitCompactions(t *testing.T, e *Engine, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); e.mCompactions.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d compactions after 10s, want %d", e.mCompactions.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadLogCountsWhatGCPrunes: GC books every record it frees at its exact
// length, continuation or first record alike: once every preloaded row is
// updated and GC has run, each segment's dead bytes are the bytes of the
// insert records in it, measured off the log itself.
func TestDeadLogCountsWhatGCPrunes(t *testing.T) {
	e, err := Open(deadLogConfig(srss.New(srss.Config{})))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.HoldCompaction() // the ledger is what is measured, not what acts on it
	tbl := mustTable(t, e, usersSchema())
	preloadUsers(t, e, tbl, 4000)
	updateUsers(t, e, tbl, span(0, 4000), -1)
	if e.RunGC() < 4000 {
		t.Fatal("GC reclaimed less than every preloaded version")
	}
	want := map[uint16]int64{}
	var total int64
	whole := 0
	for _, seg := range e.log.Segments() {
		var addrs []wal.Addr
		var ops []byte
		if err := scanSegment(e.log, seg, func(addr wal.Addr, rec wal.Record) bool {
			addrs, ops = append(addrs, addr), append(ops, rec.Op)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		end := wal.MakeAddr(seg, uint32(segmentSize(e, seg)))
		for i, a := range addrs {
			next := end
			if i+1 < len(addrs) {
				next = addrs[i+1]
			}
			if ops[i] == wal.OpInsert {
				want[seg] += int64(next.Offset() - a.Offset())
			}
		}
		if got := e.deadBytesOf(seg); got != want[seg] {
			t.Errorf("segment %d: %d dead bytes booked, its insert records are %d", seg, got, want[seg])
		}
		if want[seg] == int64(end.Offset())-1 {
			whole++ // every byte but the segment's header
		}
		total += want[seg]
	}
	if len(want) < 2 || whole < 1 {
		t.Fatalf("the preload spans %d segments, %d of them wholly, want >= 2 and >= 1", len(want), whole)
	}
	if got := metric(e, "core.log_dead_bytes"); got != total {
		t.Fatalf("core.log_dead_bytes = %d, want %d", got, total)
	}
	if n := e.mCompactions.Load(); n != 0 {
		t.Fatalf("%d compactions while held", n)
	}
	if _, err := e.CompactFull(); !errors.Is(err, ErrCompactionHeld) {
		t.Fatalf("CompactFull while held: %v, want ErrCompactionHeld", err)
	}
}

// TestDeadLogBooksAnUnreadStub: a recovered row no read has loaded knows its
// record's framing from the checkpoint image, so what GC books when it prunes
// the row is exactly the record at its address -- and for a transaction's
// first record, the CSN trailer its transaction ends with -- without reading
// it first.
func TestDeadLogBooksAnUnreadStub(t *testing.T) {
	cfg := deadLogConfig(srss.New(srss.Config{}))
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	preloadUsers(t, e, mustTable(t, e, usersSchema()), 1000)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	manifest := e.ManifestID()
	e.Close()
	e2, _, err := Recover(cfg, manifest, RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.HoldCompaction()
	tbl, _ := e2.Table("users")
	booked := map[uint16]int64{}
	want := map[uint16]int64{}
	for _, id := range []int64{0, 1} { // the first transaction's first record, then a continuation
		rid, ok, err := tbl.indexes[0].Get(EncodeKey(nil, I(id)))
		if err != nil || !ok {
			t.Fatalf("id %d: %v %v", id, ok, err)
		}
		v := tbl.rows.Get(RID(rid))
		if _, read := v.resident(); read || !v.has(flagImage) {
			t.Fatalf("id %d: the row was read, or is not the image's stub", id)
		}
		seg := v.Addr().Segment()
		var next wal.Addr
		if err := scanSegment(e2.log, seg, func(addr wal.Addr, _ wal.Record) bool {
			if addr > v.Addr() {
				next = addr
				return false
			}
			return true
		}); err != nil || next == 0 {
			t.Fatalf("id %d: no record after %v: %v", id, v.Addr(), err)
		}
		n := int64(next.Offset() - v.Addr().Offset())
		if first := id == 0; first != v.has(flagCSN) {
			t.Fatalf("id %d: first record %v, flagCSN %v", id, first, v.has(flagCSN))
		} else if first {
			n += int64(wal.TrailerLen(v.CSN()))
		}
		if got := v.logLen(e2.log, tbl.ID, RID(rid)); got != n {
			t.Errorf("id %d: the unread stub's record is %d bytes long, the log's %d", id, got, n)
		}
		want[seg] += n
		booked[seg] = e2.deadBytesOf(seg)
		tx := begin(t, e2, 0)
		if err := tx.Delete(tbl, RID(rid)); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	if e2.RunGC() == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	for seg, n := range want {
		if got := e2.deadBytesOf(seg) - booked[seg]; got != n {
			t.Errorf("segment %d: GC booked %d dead bytes for the two rows, their records are %d", seg, got, n)
		}
	}
}

// TestEngineCompactsNearlyDeadSegments: the GC pass that leaves a sealed
// segment with at most a twentieth of its bytes live wakes the engine's own
// compaction, which drops the segment and rewrites no more than that share.
func TestEngineCompactsNearlyDeadSegments(t *testing.T) {
	cfg := deadLogConfig(srss.New(srss.Config{}))
	cfg.GCEveryNCommits = 8
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := mustTable(t, e, usersSchema())
	preloadUsers(t, e, tbl, 4000)
	preload := e.log.SealedSegments()
	var preloadBytes int64
	for _, seg := range preload {
		preloadBytes += segmentSize(e, seg)
	}
	// One row in 50 stays: 2 % of each segment is live.
	var upd []int64
	for i := int64(0); i < 4000; i++ {
		if i%50 != 0 {
			upd = append(upd, i)
		}
	}
	updateUsers(t, e, tbl, upd, -1)
	e.RunGC()
	waitCompactions(t, e, 1)
	have := e.log.Segments()
	for _, seg := range preload {
		if slices.Contains(have, seg) {
			t.Errorf("preload segment %d is still in the log", seg)
		}
	}
	if got := metric(e, "core.compactions"); got < 1 {
		t.Fatalf("core.compactions = %d", got)
	}
	if got := metric(e, "core.compaction_rewritten_bytes"); got <= 0 || got*liveShare > preloadBytes*2 {
		t.Fatalf("compaction rewrote %d bytes of %d-byte segments at most 1/%d live", got, preloadBytes, liveShare)
	}
	got := snapshotTable(t, e, "users")
	for i := int64(0); i < 4000; i++ {
		want := int64(-1)
		if i%50 == 0 {
			want = i
		}
		if got[i][1] != want {
			t.Fatalf("row %d: balance %v, want %d", i, got[i][1], want)
		}
	}
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	if fmt.Sprint(snapshotTable(t, e2, "users")) != fmt.Sprint(got) {
		t.Fatal("rows read differently after recovery")
	}
}

// TestGCOffCountsNothing: an engine without GC keeps no dead-log ledger and
// never compacts on its own, whatever RunGC prunes.
func TestGCOffCountsNothing(t *testing.T) {
	cfg := deadLogConfig(srss.New(srss.Config{}))
	cfg.GCEveryNCommits = -1
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := mustTable(t, e, usersSchema())
	preloadUsers(t, e, tbl, 4000)
	updateUsers(t, e, tbl, span(0, 4000), -1)
	if e.RunGC() == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	if e.dead != nil || metric(e, "core.log_dead_bytes") != 0 || e.mCompactions.Load() != 0 {
		t.Fatalf("an engine without GC counted %d dead bytes, compacted %d times", metric(e, "core.log_dead_bytes"), e.mCompactions.Load())
	}
}

// TestCheckpointDeletesSupersededImage: a checkpoint deletes the image it
// supersedes once the manifest names the new one, so three checkpoints leave
// one image in storage and in core.checkpoint_image_bytes.
func TestCheckpointDeletesSupersededImage(t *testing.T) {
	svc := srss.New(srss.Config{})
	e, err := Open(deadLogConfig(svc))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := mustTable(t, e, usersSchema())
	images := func() []*srss.PLog {
		var out []*srss.PLog
		segs := map[srss.PLogID]bool{e.ManifestID(): true, e.log.Directory().MetaID(): true}
		for _, seg := range e.log.Segments() {
			id, _ := e.log.Directory().Lookup(seg)
			segs[id] = true
		}
		for _, id := range svc.List(srss.TierCompute) {
			p, err := svc.Open(id)
			if err != nil || segs[id] || p.Size() == 0 {
				continue
			}
			b := make([]byte, 1)
			if _, err := p.ReadAt(b, 0); err == nil && b[0] == checkpointHeader {
				out = append(out, p)
			}
		}
		return out
	}
	for i := int64(0); i < 3; i++ {
		insertUser(t, e, tbl, 0, i, "row", i)
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	imgs := images()
	if len(imgs) != 1 {
		t.Fatalf("%d checkpoint images in storage after three checkpoints, want 1", len(imgs))
	}
	if got := metric(e, "core.checkpoint_image_bytes"); got != imgs[0].Size() {
		t.Fatalf("core.checkpoint_image_bytes = %d, the one image is %d bytes", got, imgs[0].Size())
	}
	e2, _ := recoverEngine(t, e, RecoverOptions{})
	if got := snapshotTable(t, e2, "users"); len(got) != 3 {
		t.Fatalf("recovered %d rows from the one image, want 3", len(got))
	}
}

// TestRecoveredEngineCompactsDeadSegments: recovery seeds the ledger from the
// rows it brings back -- the image's entries and the replay's winners -- so
// segments that died before the crash are compacted after the recovered
// engine's first GC pass, and not before it.
func TestRecoveredEngineCompactsDeadSegments(t *testing.T) {
	svc := srss.New(srss.Config{})
	cfg := deadLogConfig(svc)
	cfg.GCEveryNCommits = -1 // the dead segments die unbooked, before the crash
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustTable(t, e, usersSchema())
	preloadUsers(t, e, tbl, 4000)
	preload := e.log.SealedSegments()
	var upd []int64
	for i := int64(0); i < 4000; i++ {
		if i%50 != 0 {
			upd = append(upd, i)
		}
	}
	updateUsers(t, e, tbl, upd[:len(upd)/2], -1)
	if _, err := e.Checkpoint(); err != nil { // half the winners come from the image
		t.Fatal(err)
	}
	updateUsers(t, e, tbl, upd[len(upd)/2:], -1)
	want := snapshotTable(t, e, "users")
	manifest := e.ManifestID()
	e.Close()

	cfg.GCEveryNCommits = 64
	e2, _, err := Recover(cfg, manifest, RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for _, seg := range preload {
		if !e2.nearlyDead(seg, e2.deadBytesOf(seg)) {
			t.Fatalf("preload segment %d: %d of %d bytes booked dead after recovery", seg, e2.deadBytesOf(seg), segmentSize(e2, seg))
		}
	}
	if len(e2.dead.wake) != 0 || e2.mCompactions.Load() != 0 {
		t.Fatal("the recovered engine compacted before its first GC pass")
	}
	e2.RunGC()
	waitCompactions(t, e2, 1)
	have := e2.log.Segments()
	for _, seg := range preload {
		if slices.Contains(have, seg) {
			t.Errorf("preload segment %d is still in the log", seg)
		}
	}
	if fmt.Sprint(snapshotTable(t, e2, "users")) != fmt.Sprint(want) {
		t.Fatal("rows read differently after the recovered engine's compaction")
	}
	e3, _ := recoverEngine(t, e2, RecoverOptions{ReplayThreads: 2})
	if fmt.Sprint(snapshotTable(t, e3, "users")) != fmt.Sprint(want) {
		t.Fatal("rows read differently after a second recovery")
	}
}

// TestCompactionCrashSites: a crash once a compaction's rewrites are durable
// (core.compact.mid), or once its checkpoint is registered
// (core.compact.drop), loses no acked row, over 50 seeded workloads each. A
// checkpoint taken before the compaction points into the segments it
// compacts: at either site those segments are still in the log, so the
// drop-before-checkpoint window -- the previous image's addresses in
// segments already deleted -- does not exist.
func TestCompactionCrashSites(t *testing.T) {
	for _, site := range []string{SiteCompactMid, SiteCompactDrop} {
		for seed := uint64(1); seed <= 50; seed++ {
			compactionCrash(t, site, seed)
		}
	}
}

func compactionCrash(t *testing.T, site string, seed uint64) {
	ch := chaos.New(seed)
	svc := srss.New(srss.Config{Chaos: ch})
	cfg := Config{Name: "compact-crash", Service: svc, Workers: 2, LogStreams: 2, SegmentSize: 1 << 14, GCEveryNCommits: -1}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustTable(t, e, usersSchema())
	rng := ch.Rand("workload")
	rows := int64(300 + rng.Intn(500))
	model := map[int64]int64{}
	for i := int64(0); i < rows; i += 50 {
		tx := begin(t, e, int(i/50)%2)
		for j := i; j < min(i+50, rows); j++ {
			if _, err := tx.Insert(tbl, Row{I(j), S(fmt.Sprintf("user-%d", j)), I(j)}); err != nil {
				t.Fatal(err)
			}
			model[j] = j
		}
		commit(t, tx)
	}
	step := func(n int) {
		for k := 0; k < n; k++ {
			id := int64(rng.Intn(int(rows)))
			tx := begin(t, e, k%2)
			switch _, live := model[id]; {
			case !live:
				if _, err := tx.Insert(tbl, Row{I(id), S("back"), I(-id)}); err != nil {
					t.Fatal(err)
				}
				model[id] = -id
			case rng.Intn(5) == 0:
				if err := deleteUser(tx, tbl, id); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
			default:
				bal := int64(rng.Intn(1 << 20))
				if ok, err := tx.UpdateColumns(tbl, 0, []Value{I(id)}, nil, []ColValue{{Col: 2, Val: I(bal)}}); err != nil || !ok {
					t.Fatal(ok, err)
				}
				model[id] = bal
			}
			commit(t, tx)
		}
	}
	step(int(rows))
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	step(int(rows) / 2)
	e.RunGC()
	anchor := e.LastCheckpointCSN()
	before := e.log.SealedSegments()
	ch.Arm(chaos.Rule{Site: site, Action: chaos.Crash, OnHit: ch.Hits(site) + 1})
	if _, err := e.CompactFull(); !errors.Is(err, chaos.ErrCrashed) {
		t.Fatalf("%s seed %d: compaction: %v, want a crash", site, seed, err)
	}
	have := e.log.Segments()
	for _, seg := range before {
		if !slices.Contains(have, seg) {
			t.Fatalf("%s seed %d: segment %d dropped before the crash site", site, seed, seg)
		}
	}
	if moved := e.LastCheckpointCSN() != anchor; moved != (site == SiteCompactDrop) {
		t.Fatalf("%s seed %d: checkpoint moved = %v at the crash", site, seed, moved)
	}
	ch.Disarm(site)
	manifest := e.ManifestID()
	e.Close()
	ch.ClearCrash()

	check := func(e *Engine, when string) {
		got := snapshotTable(t, e, "users")
		if len(got) != len(model) {
			t.Fatalf("%s seed %d %s: %d rows, want %d", site, seed, when, len(got), len(model))
		}
		for id, bal := range model {
			if got[id][1] != bal {
				t.Fatalf("%s seed %d %s: row %d balance %v, want %d", site, seed, when, id, got[id][1], bal)
			}
		}
	}
	e2, _, err := Recover(cfg, manifest, RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatalf("%s seed %d: recover: %v", site, seed, err)
	}
	check(e2, "after the crash")
	if _, err := e2.CompactFull(); err != nil {
		t.Fatalf("%s seed %d: compaction after recovery: %v", site, seed, err)
	}
	manifest = e2.ManifestID()
	e2.Close()
	e3, _, err := Recover(cfg, manifest, RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatalf("%s seed %d: second recover: %v", site, seed, err)
	}
	defer e3.Close()
	check(e3, "after a compaction of the recovered log")
}

// deleteUser deletes row id in tx.
func deleteUser(tx *Txn, tbl *Table, id int64) error {
	rid, _, err := tx.GetByKey(tbl, 0, I(id))
	if err != nil {
		return err
	}
	return tx.Delete(tbl, rid)
}

// TestCompactionRacesWritersGCAndSnapshot runs compactions -- the engine's
// own, of nearly dead segment sets and full ones -- against concurrent
// writers, GC and an open snapshot: the snapshot reads what it read before,
// the writers' rows are what they acked, before and after a recovery. Run it
// under -race.
func TestCompactionRacesWritersGCAndSnapshot(t *testing.T) {
	cfg := Config{Name: "compact-race", Service: srss.New(srss.Config{}), Workers: 4, LogStreams: 2, SegmentSize: 1 << 15, GCEveryNCommits: 4}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustTable(t, e, usersSchema())
	const writers, perWriter, ops = 2, 400, 1500
	models := make([]map[int64]int64, writers)
	for w := range models {
		models[w] = map[int64]int64{}
		lo := int64(w * perWriter)
		preloadRange(t, e, tbl, w, lo, lo+perWriter)
		for id := lo; id < lo+perWriter; id++ {
			models[w][id] = id
		}
	}
	snap := begin(t, e, 3)
	seen := scanUsers(t, snap, tbl)

	var writing sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int, model map[int64]int64) {
			defer writing.Done()
			rng := chaos.NewRand(uint64(w+1), "writer")
			for k := int64(0); k < ops; k++ {
				id := int64(w*perWriter + rng.Intn(perWriter))
				_, live := model[id]
				del := live && rng.Intn(6) == 0
				tx, err := e.Begin(w)
				if err != nil {
					errs <- err
					return
				}
				switch {
				case !live:
					_, err = tx.Insert(tbl, Row{I(id), S("again"), I(k)})
				case del:
					err = deleteUser(tx, tbl, id)
				default:
					_, err = tx.UpdateColumns(tbl, 0, []Value{I(id)}, nil, []ColValue{{Col: 2, Val: I(k)}})
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, k, err)
					return
				}
				if del {
					delete(model, id)
				} else {
					model[id] = k
				}
			}
		}(w, models[w])
	}
	stop := make(chan struct{})
	compacted := make(chan int)
	go func() {
		n := 0
		defer func() { compacted <- n }()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.RunGC()
			var err error
			if i%2 == 0 {
				_, err = e.compact(e.deadSegments)
			} else {
				_, err = e.CompactFull()
			}
			if err != nil {
				errs <- fmt.Errorf("compaction %d: %w", i, err)
				return
			}
			n++
		}
	}()
	writing.Wait()
	close(stop)
	if n := <-compacted; n < 2 {
		t.Errorf("%d compactions ran beside the writers", n)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := scanUsers(t, snap, tbl); fmt.Sprint(got) != fmt.Sprint(seen) {
		t.Fatal("the open snapshot reads differently after the compactions")
	}
	commit(t, snap)
	want := map[int64]int64{}
	for _, m := range models {
		for id, bal := range m {
			want[id] = bal
		}
	}
	check := func(e *Engine, when string) {
		tx := begin(t, e, 0)
		defer commit(t, tx)
		tbl, err := e.Table("users")
		if err != nil {
			t.Fatal(err)
		}
		if got := scanUsers(t, tx, tbl); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %d rows, the writers acked %d", when, len(got), len(want))
		}
	}
	check(e, "after the writers")
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	check(e2, "after recovery")
}

// preloadRange inserts rows [lo, hi) on worker w in transactions of 100.
func preloadRange(t *testing.T, e *Engine, tbl *Table, w int, lo, hi int64) {
	t.Helper()
	for i := lo; i < hi; i += 100 {
		tx := begin(t, e, w)
		for j := i; j < min(i+100, hi); j++ {
			if _, err := tx.Insert(tbl, Row{I(j), S(fmt.Sprintf("user-%d", j)), I(j)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
	}
}

// scanUsers reads every row tx sees: id to balance.
func scanUsers(t *testing.T, tx *Txn, tbl *Table) map[int64]int64 {
	t.Helper()
	out := map[int64]int64{}
	if err := tx.ScanKey(tbl, 0, nil, nil, func(_ RID, row Row) bool {
		out[row[0].Int()] = row[2].Int()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
