// Package hiengine_test holds the repository-level per-operation benchmarks:
// the workload unit of each measured figure of the paper's evaluation
// (Section 6; Figure 8's is BenchmarkRecover) plus the ablation benchmarks
// for the design decisions called out in DESIGN.md.
// Full figure regeneration (sweeps, series, expected-shape comparisons) is
// cmd/hibench; these benchmarks measure the per-operation cost of each
// figure's workload unit so `go test -bench` gives ns/op and allocs for the
// same code paths.
package hiengine_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/baseline/innosim"
	"hiengine/internal/baseline/memocc"
	"hiengine/internal/clock"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/engineapi"
	"hiengine/internal/numa"
	"hiengine/internal/pia"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
	"hiengine/internal/workload/tpcc"
)

// --- Figure 5: sysbench through the SQL layer -------------------------------

func fig5Frontend(b *testing.B, engine string) *sqlfront.Frontend {
	b.Helper()
	model := delay.CloudProfile()
	var db engineapi.DB
	switch engine {
	case "hiengine":
		e, err := core.Open(core.Config{Service: srss.New(srss.Config{Model: model}), Workers: 32})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(e.Close)
		db = adapt.New(e)
	case "dbms-t":
		d, err := innosim.New(innosim.Config{Service: srss.New(srss.Config{Model: model})})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(d.Close)
		db = d
	case "mysql":
		d, err := innosim.New(innosim.Config{Service: srss.New(srss.Config{Model: model}),
			Variant: innosim.VariantMySQL})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(d.Close)
		db = d
	}
	front := sqlfront.NewFrontend(engine, db)
	sess := front.NewSession(0)
	if _, err := sess.Exec("CREATE TABLE sbtest (id INT, k INT, c TEXT, pad TEXT, PRIMARY KEY(id))"); err != nil {
		b.Fatal(err)
	}
	ins, err := sess.Prepare("INSERT INTO sbtest VALUES (?, ?, ?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := ins.Exec(core.I(int64(i+1)), core.I(int64(i%97)),
			core.S("sysbench-value"), core.S("pad")); err != nil {
			b.Fatal(err)
		}
	}
	return front
}

func BenchmarkFig5aInterpreted(b *testing.B) {
	for _, engine := range []string{"hiengine", "dbms-t", "mysql"} {
		for _, mode := range []string{"read", "write"} {
			b.Run(engine+"/"+mode, func(b *testing.B) {
				front := fig5Frontend(b, engine)
				sess := front.NewSession(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id := core.I(int64(i%1000 + 1))
					var err error
					if mode == "write" {
						_, err = sess.Exec("UPDATE sbtest SET c = ? WHERE id = ?", core.S("v"), id)
					} else {
						_, err = sess.Exec("SELECT c FROM sbtest WHERE id = ?", id)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig5bCompiled(b *testing.B) {
	for _, engine := range []string{"hiengine", "dbms-t", "mysql"} {
		for _, mode := range []string{"read", "write"} {
			b.Run(engine+"/"+mode, func(b *testing.B) {
				front := fig5Frontend(b, engine)
				sess := front.NewSession(1)
				sel, err := sess.Prepare("SELECT c FROM sbtest WHERE id = ?")
				if err != nil {
					b.Fatal(err)
				}
				upd, err := sess.Prepare("UPDATE sbtest SET c = ? WHERE id = ?")
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id := core.I(int64(i%1000 + 1))
					if mode == "write" {
						_, err = upd.Exec(core.S("v"), id)
					} else {
						_, err = sel.Exec(id)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 6/7: TPC-C transaction units ------------------------------------

func tpccDriver(b *testing.B, engine string) *tpcc.Driver {
	b.Helper()
	model := delay.CloudProfile()
	var db engineapi.DB
	pipeline := 0
	switch engine {
	case "hiengine":
		e, err := core.Open(core.Config{Service: srss.New(srss.Config{Model: model}),
			Workers: 8, SegmentSize: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(e.Close)
		db = adapt.New(e)
		pipeline = 8
	case "dbms-m":
		d, err := memocc.New(memocc.Config{Service: srss.New(srss.Config{Model: model}),
			Workers: 8, SegmentSize: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(d.Close)
		db = d
	}
	sc := tpcc.SmallScale()
	if err := tpcc.Load(db, 2, sc, 4); err != nil {
		b.Fatal(err)
	}
	return tpcc.NewDriver(tpcc.Config{
		DB: db, Warehouses: 2, Threads: 1, Scale: sc,
		Partitioned: true, PipelineDepth: pipeline, Seed: 1,
	})
}

func BenchmarkFig6TPCC(b *testing.B) {
	for _, engine := range []string{"hiengine", "dbms-m"} {
		for _, tt := range []tpcc.TxnType{tpcc.TxnNewOrder, tpcc.TxnPayment} {
			b.Run(fmt.Sprintf("%s/%v", engine, tt), func(b *testing.B) {
				d := tpccDriver(b, engine)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.RunOne(0, tt, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if err := d.DrainSessions(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

func BenchmarkFig7NumaAccess(b *testing.B) {
	topo := numa.ARMKunpeng920()
	acct := numa.NewAccountant(topo, nil)
	cases := []struct {
		name string
		core numa.Core
		die  int
	}{
		{"local", topo.Core(0), 0},
		{"remote-die", topo.Core(0), 1},
		{"remote-socket", topo.Core(0), 2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acct.Access(c.core, c.die)
			}
		})
	}
}

// --- Section 5.3: clocks -------------------------------------------------------

func BenchmarkClockGrant(b *testing.B) {
	b.Run("logical-rdma-3nodes", func(b *testing.B) {
		lc := clock.NewLogicalClock(&delay.Model{RDMAFetchAdd: 40 * time.Microsecond}, nil, 1_500_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lc.Next()
		}
	})
	b.Run("global-eps10us", func(b *testing.B) {
		gc := clock.NewGlobalClock(10*time.Microsecond, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gc.Next()
		}
	})
	b.Run("global-eps20us", func(b *testing.B) {
		gc := clock.NewGlobalClock(20*time.Microsecond, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gc.Next()
		}
	})
	b.Run("local-counter", func(b *testing.B) {
		c := clock.NewCounter(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Next()
		}
	})
}

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

// --- Ablation: commit pipelining (DESIGN.md #2) --------------------------------

func ablationEngine(b *testing.B, tier srss.Tier, batch int) (*core.Engine, *core.Table) {
	b.Helper()
	e, err := core.Open(core.Config{
		Service:          srss.New(srss.Config{Model: delay.CloudProfile()}),
		Workers:          64,
		LogTier:          tier,
		GroupCommitBatch: batch,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	tbl, err := e.CreateTable(&core.Schema{
		Name:    "t",
		Columns: []core.Column{{Name: "id", Kind: core.KindInt}, {Name: "v", Kind: core.KindString}},
		Indexes: []core.IndexDef{{Name: "pk", Columns: []int{0}, Unique: true}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return e, tbl
}

func BenchmarkAblationPipeline(b *testing.B) {
	b.Run("sync-commit", func(b *testing.B) {
		e, tbl := ablationEngine(b, srss.TierCompute, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, err := e.Begin(0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tx.Insert(tbl, core.Row{core.I(int64(i)), core.S("v")}); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipelined-commit", func(b *testing.B) {
		e, tbl := ablationEngine(b, srss.TierCompute, 64)
		window := make(chan struct{}, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, err := e.Begin(0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tx.Insert(tbl, core.Row{core.I(int64(i)), core.S("v")}); err != nil {
				b.Fatal(err)
			}
			window <- struct{}{}
			if err := tx.CommitAsync(func(error) { <-window }); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for i := 0; i < cap(window); i++ {
			window <- struct{}{}
		}
	})
}

// --- Ablation: compute-side vs storage-side commit (DESIGN.md #3) ---------------

func BenchmarkAblationCommitSide(b *testing.B) {
	for _, c := range []struct {
		name string
		tier srss.Tier
	}{{"compute-side", srss.TierCompute}, {"storage-side", srss.TierStorage}} {
		b.Run(c.name, func(b *testing.B) {
			e, tbl := ablationEngine(b, c.tier, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := e.Begin(0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Insert(tbl, core.Row{core.I(int64(i)), core.S("v")}); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: dataless vs full-data checkpoint (DESIGN.md #4) ------------------

func BenchmarkAblationCheckpoint(b *testing.B) {
	setup := func(b *testing.B) (*core.Engine, *core.Table) {
		e, tbl := ablationEngine(b, srss.TierCompute, 64)
		for i := 0; i < 20000; i++ {
			tx, _ := e.Begin(0)
			if _, err := tx.Insert(tbl, core.Row{core.I(int64(i)), core.S("payload-payload-payload-payload")}); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		return e, tbl
	}
	b.Run("dataless", func(b *testing.B) {
		e, _ := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-data", func(b *testing.B) {
		// What a conventional checkpoint would write: every live row's
		// payload, not just its address.
		e, tbl := setup(b)
		svc := e.Service()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plog, err := svc.Create(srss.TierCompute)
			if err != nil {
				b.Fatal(err)
			}
			tx, _ := e.Begin(1)
			buf := make([]byte, 0, 64<<10)
			err = tx.ScanKey(tbl, 0, nil, nil, func(_ core.RID, row core.Row) bool {
				buf = core.EncodeRow(buf, row)
				if len(buf) >= 64<<10 {
					if _, err := plog.Append(buf); err != nil {
						b.Fatal(err)
					}
					buf = buf[:0]
				}
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(buf) > 0 {
				if _, err := plog.Append(buf); err != nil {
					b.Fatal(err)
				}
			}
			tx.Commit()
			svc.Delete(plog.ID())
		}
	})
}

// --- Ablation: group commit batch size (DESIGN.md #6) ---------------------------

// Group commit engages when multiple in-flight commits share one log stream
// (the paper's per-core I/O thread serving a pipelining worker), so the
// ablation drives one worker with a deep pipeline and varies the batch cap.
func BenchmarkAblationGroupCommit(b *testing.B) {
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			e, tbl := ablationEngine(b, srss.TierCompute, batch)
			window := make(chan struct{}, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := e.Begin(0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Insert(tbl, core.Row{core.I(int64(i)), core.S("v")}); err != nil {
					b.Fatal(err)
				}
				window <- struct{}{}
				if err := tx.CommitAsync(func(error) { <-window }); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for i := 0; i < cap(window); i++ {
				window <- struct{}{}
			}
		})
	}
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

// TestRecoveryAllocs holds recovery to what a recovered row needs: its
// Version -- the header of its log-backed payload is inside it; its int key's
// RID is a word in an index node's slot, no leaf -- plus the amortised rest
// (the tree's inner nodes and value arrays, the PIA's pages). It also holds
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
	if perRow := float64(after.Mallocs-before.Mallocs) / rows; perRow > 1.1 {
		t.Errorf("recovery allocates %.2f times per recovered row, want <= 1.1", perRow)
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
