// Package hiengine_test holds the repository-level per-operation benchmarks
// that no experiment of cmd/hibench measures: the PIA against the maps it
// replaces, the write path through sqlfront and one crash recovery, with the
// tests that hold recovery to its allocations and its log reads. The paper's
// figures, the clock grant and the commit and checkpoint ablations are
// cmd/hibench's (-exp fig5a ... ablations), each measured by one runner of
// internal/bench.
package hiengine_test

import (
	"fmt"
	"runtime"
	"testing"

	"hiengine/internal/adapt"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/pia"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
)

// --- Ablation: PIA vs alternatives (DESIGN.md #1) ----------------------------

func BenchmarkAblationPIA(b *testing.B) {
	const n = 1 << 16
	type rec struct{ v int64 }
	b.Run("pia", func(b *testing.B) {
		m := pia.New[rec](pia.Config{SlotBits: 20})
		rids := make([]pia.RID, n)
		for i := 0; i < n; i++ {
			rids[i], _ = m.Alloc()
			m.Store(rids[i], &rec{v: int64(i)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.Get(rids[i&(n-1)]) == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("gomap", func(b *testing.B) {
		m := make(map[uint64]*rec, n)
		for i := 0; i < n; i++ {
			m[uint64(i)] = &rec{v: int64(i)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m[uint64(i&(n-1))] == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("static-slice", func(b *testing.B) {
		m := make([]*rec, n)
		for i := 0; i < n; i++ {
			m[i] = &rec{v: int64(i)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m[i&(n-1)] == nil {
				b.Fatal("miss")
			}
		}
	})
}

// --- Ablation: one-pass write path (ISSUE 14) -------------------------------------

// The write path through sqlfront, as the repository benchmark's oltp and
// ingest workloads drive it: prepared statements in an explicit transaction
// whose pipelined commit is waited for. Run with -benchmem: allocs/op is the
// number the path is held to (see the gates in internal/core and
// internal/sqlfront).
func BenchmarkWritePath(b *testing.B) {
	setup := func(b *testing.B) (*sqlfront.Session, *sqlfront.Stmt, func()) {
		e, err := core.Open(core.Config{Service: srss.New(srss.Config{Model: delay.Zero()}), Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(e.Close)
		s := sqlfront.NewFrontend("hiengine", adapt.New(e)).NewSession(0)
		if _, err := s.Exec("CREATE TABLE bench (id INT, k INT, c TEXT, PRIMARY KEY(id))"); err != nil {
			b.Fatal(err)
		}
		ins, err := s.Prepare("INSERT INTO bench VALUES (?, ?, ?)")
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		durable := func(err error) { done <- err }
		commit := func() {
			async, err := s.CommitAsync(durable)
			if async {
				err = <-done
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		return s, ins, commit
	}
	text := core.S(fmt.Sprintf("%0100d", 7))
	insertTxns := func(b *testing.B, perTxn int) {
		s, ins, commit := setup(b)
		args := make([]core.Value, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i, id := 0, int64(0); i < b.N; i++ {
			s.Begin()
			for j := 0; j < perTxn; j, id = j+1, id+1 {
				args[0], args[1], args[2] = core.I(id), core.I(id*7919), text
				if _, err := ins.Exec(args...); err != nil {
					b.Fatal(err)
				}
			}
			commit()
		}
	}
	b.Run("insert", func(b *testing.B) { insertTxns(b, 1) })
	b.Run("insert-128-commit", func(b *testing.B) { insertTxns(b, 128) })
	b.Run("point-update", func(b *testing.B) {
		s, ins, commit := setup(b)
		const rows = 1000
		for id := int64(0); id < rows; id++ {
			if _, err := ins.Exec(core.I(id), core.I(id), text); err != nil {
				b.Fatal(err)
			}
		}
		upd, err := s.Prepare("UPDATE bench SET k = ?, c = ? WHERE id = ?")
		if err != nil {
			b.Fatal(err)
		}
		args := make([]core.Value, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Begin()
			args[0], args[1], args[2] = core.I(int64(i)), text, core.I(int64(i%rows))
			if _, err := upd.Exec(args...); err != nil {
				b.Fatal(err)
			}
			commit()
		}
	})
}

// --- Recovery reads the log like a log (ISSUE 16) ---------------------------------

// crashedIngest is the repository benchmark's ingest_recover in small:
// 140-byte rows bulk-loaded by two clients, 128 per commit, a checkpoint
// after the first checkpointed of them, tail more, then the crash. It returns
// the configuration to recover with, whose Service is the storage the log
// survives in, and the bytes the tail added to the log.
func crashedIngest(tb testing.TB, checkpointed, tail int) (cfg core.Config, tailBytes int64) {
	tb.Helper()
	cfg = core.Config{Service: srss.New(srss.Config{Model: delay.Zero()}), Workers: 4}
	e, err := core.Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := e.CreateTable(&core.Schema{
		Name: "ingest",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt}, {Name: "k", Kind: core.KindInt}, {Name: "c", Kind: core.KindString},
		},
		Indexes: []core.IndexDef{{Name: "pk", Columns: []int{0}, Unique: true}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	text := core.S(fmt.Sprintf("%0100d", 7))
	load := func(lo, hi int) {
		const clients, batch = 2, 128
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			go func(c int) {
				for id := lo + c*batch; id < hi; id += clients * batch {
					tx, err := e.Begin(c)
					if err != nil {
						errs <- err
						return
					}
					for i := id; i < id+batch && i < hi; i++ {
						if _, err := tx.Insert(tbl, core.Row{core.I(int64(i)), core.I(int64(i) * 7919), text}); err != nil {
							errs <- err
							return
						}
					}
					if err := tx.Commit(); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(c)
		}
		for c := 0; c < clients; c++ {
			if err := <-errs; err != nil {
				tb.Fatal(err)
			}
		}
	}
	load(0, checkpointed)
	if _, err := e.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	before := e.Log().TotalBytes()
	load(checkpointed, checkpointed+tail)
	tailBytes = e.Log().TotalBytes() - before
	e.Close()
	return cfg, tailBytes
}

// BenchmarkRecover is one crash recovery of crashedIngest's 200k rows with
// two threads: checkpoint load, replay of the last quarter, indexes.
func BenchmarkRecover(b *testing.B) {
	const rows = 200_000
	cfg, _ := crashedIngest(b, rows*3/4, rows/4)
	b.ReportAllocs()
	b.ResetTimer()
	var st *core.RecoveryStats
	for i := 0; i < b.N; i++ {
		e, s, err := core.RecoverByName(cfg, core.RecoverOptions{ReplayThreads: 2})
		if err != nil {
			b.Fatal(err)
		}
		st = s
		e.Close()
	}
	b.ReportMetric(float64(st.CheckpointLoadDuration.Microseconds())/1e3, "ckpt-ms")
	b.ReportMetric(float64((st.ReplayDuration-st.CheckpointLoadDuration).Microseconds())/1e3, "replay-ms")
	b.ReportMetric(float64(st.IndexDuration.Microseconds())/1e3, "index-ms")
	b.ReportMetric(float64(st.WindowReads), "window-reads")
}

// TestRecoveryAllocs holds recovery to what a recovered row needs: a replayed
// row's Version, a checkpointed row's a 256th of its stub slab -- the header
// of its log-backed payload is inside it; its int key's RID is a word in an
// index node's slot, no leaf -- plus the amortised rest (the tree's inner
// nodes and value arrays, the PIA's pages). It also holds
// the storage reads of a recovery to the chunks of the log's tail -- no
// checkpointed row is read -- and checks that a checkpointed row's first read
// is one storage read, and a replayed row's none.
func TestRecoveryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 200k rows")
	}
	const rows = 200_000
	cfg, tailBytes := crashedIngest(t, rows*3/4, rows/4)
	svc := cfg.Service
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	readsBefore := svc.Stats().Reads.Load()
	e, st, err := core.RecoverByName(cfg, core.RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reads := svc.Stats().Reads.Load() - readsBefore
	runtime.ReadMemStats(&after)
	if st.IndexKeys != rows || st.ImageKeys != rows*3/4 || st.CheckpointEntries != rows*3/4 || st.RecordsApplied != rows/4 {
		t.Fatalf("recovered %d keys (%d from the image) from %d checkpoint entries and %d replayed records, want %d, %d, %d, %d",
			st.IndexKeys, st.ImageKeys, st.CheckpointEntries, st.RecordsApplied, rows, rows*3/4, rows*3/4, rows/4)
	}
	if perRow := float64(after.Mallocs-before.Mallocs) / rows; perRow > 0.35 {
		t.Errorf("recovery allocates %.2f times per recovered row, want <= 0.35", perRow)
	} else {
		t.Logf("%.3f allocations per recovered row", perRow)
	}
	// A window per 256 KiB chunk of the tail, up to two more reads for the
	// record a chunk boundary cuts, and one more per segment scanned.
	chunks := tailBytes/(256<<10) + 1
	if bound := 3*chunks + int64(st.SegmentsScanned); st.WindowReads > bound || st.WindowReads > reads {
		t.Errorf("recovery issued %d log window reads (%d storage reads) for a %d-byte tail, want <= %d", st.WindowReads, reads, tailBytes, bound)
	} else {
		t.Logf("%d storage reads, %d of them log windows, for a tail of %d chunks", reads, st.WindowReads, chunks)
	}

	tbl, err := e.Table("ingest")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	for id := int64(0); id < rows; id += 997 {
		readsBefore = svc.Stats().Reads.Load()
		_, row, err := tx.GetByKey(tbl, 0, core.I(id))
		if err != nil || row[1].Int() != id*7919 {
			t.Fatalf("row %d after recovery: %v, %v", id, row, err)
		}
		want := int64(0) // replayed: the payload is the log's, resident
		if id < rows*3/4 {
			want = 1 // checkpointed: faulted in, checksum-verified, on its first read
		}
		if got := svc.Stats().Reads.Load() - readsBefore; got != want {
			t.Fatalf("the first read of row %d cost %d storage reads, want %d", id, got, want)
		}
	}
}

// TestRecoveryReadsOnlyTheTail: recovery's log reads scale with the tail, not
// the table. Twice the checkpointed rows under the same tail cost the same
// window reads, and twice the tail about twice as many.
func TestRecoveryReadsOnlyTheTail(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 450k rows")
	}
	windows := func(checkpointed, tail int) (int64, int64) {
		cfg, tailBytes := crashedIngest(t, checkpointed, tail)
		e, st, err := core.RecoverByName(cfg, core.RecoverOptions{ReplayThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		if st.ImageKeys != int64(checkpointed) || st.IndexKeys != int64(checkpointed+tail) {
			t.Fatalf("%d checkpointed rows and a tail of %d: %d keys, %d from the image", checkpointed, tail, st.IndexKeys, st.ImageKeys)
		}
		return st.WindowReads, tailBytes
	}
	small, tailBytes := windows(50_000, 25_000)
	big, bigTail := windows(100_000, 25_000)
	t.Logf("%d window reads over %d checkpointed rows, %d over twice as many; a %d-byte tail", small, 50_000, big, tailBytes)
	if big != small || bigTail != tailBytes {
		t.Errorf("twice the checkpointed rows under the same %d-byte tail (%d bytes) cost %d window reads, once as many %d",
			tailBytes, bigTail, big, small)
	}
	if double, _ := windows(50_000, 50_000); double < small*3/2 {
		t.Errorf("twice the tail cost %d window reads, once %d", double, small)
	}
}
