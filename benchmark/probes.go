package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/engineapi"
	"hiengine/internal/index"
	"hiengine/internal/pia"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
	"hiengine/internal/wire"
)

// Layer probes time a layer's exported functions directly, on the row and
// statement shapes of the workload they run beside. They say what a call
// into the layer costs with nothing around it; the traced run says how
// often it is called.

const probeBatches = 7

// perItemNS runs fn(n) probeBatches times and returns the median batch's
// nanoseconds per item.
func perItemNS(n int, fn func(n int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		fn(n)
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// firstError returns a function that keeps the first non-nil error it is
// given in *err: probe loops note failures without branching on them.
func firstError(err *error) func(error) {
	return func(e error) {
		if *err == nil && e != nil {
			*err = e
		}
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeShape is the workload's statement and row shape.
type probeShape struct {
	seed      uint64
	schema    schema
	selectSQL string
	selectArg []core.Value
	updArgs   []core.Value // the update statement's parameters
	point     core.Row     // one point-select result row
}

func shapeOf(seed uint64, sch schema) probeShape {
	s := probeShape{seed: seed, schema: sch, selectSQL: sqlSelect, selectArg: []core.Value{core.I(7)}}
	k, c := core.I(rowK(seed, 7, 1)), core.S(rowText(seed, 7, 1))
	s.updArgs = []core.Value{k, c, core.I(7)}
	s.point = core.Row{k, c}
	if sch == scanTable {
		s.selectSQL = sqlScan
		s.updArgs = []core.Value{k, c, core.I(0), core.I(7)}
	}
	return s
}

// probeWire times the frame and result codecs: an ExecStmt request
// encoded, framed, read back and decoded; a 1-row and a 100-row result
// encoded and decoded.
func probeWire(sh probeShape, n int, out map[string]float64) error {
	var payload, frame, body []byte
	rd := bytes.NewReader(nil)
	fr := wire.NewFrameReader(rd, true)
	var err error
	roundTrip := func(n int) {
		for i := 0; i < n; i++ {
			payload = wire.AppendExecStmt(payload[:0], 3, sh.updArgs)
			frame = wire.AppendFrame(frame[:0], wire.Frame{RequestID: uint64(i), Op: wire.OpExecStmt, Payload: payload})
			rd.Reset(frame)
			f, rerr := fr.Read()
			if rerr != nil {
				err = rerr
				return
			}
			if _, _, derr := wire.DecodeExecStmt(f.Payload); derr != nil {
				err = derr
				return
			}
		}
	}
	out["wire.req_codec_ns"] = perItemNS(n, roundTrip)
	m0 := mallocs()
	roundTrip(n)
	out["wire.codec_allocs_per_frame"] = float64(mallocs()-m0) / float64(n)

	result := func(res *wire.Result) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				body = wire.AppendResult(body[:0], res)
				if _, derr := wire.DecodeResult(body); derr != nil {
					err = derr
					return
				}
			}
		}
	}
	out["wire.resp_codec_point_ns"] = perItemNS(n, result(&wire.Result{Columns: []string{"k", "c"}, Rows: []core.Row{sh.point}}))
	scan := &wire.Result{Columns: []string{"id", "c"}}
	for i := int64(0); i < groupRows; i++ {
		scan.Rows = append(scan.Rows, core.Row{core.I(i), sh.point[1]})
	}
	out["wire.resp_codec_scan_ns"] = perItemNS(n/20+1, result(scan))
	return err
}

// stubDB is a no-op engine: what sqlfront costs with nothing below it.
type stubDB struct{ row core.Row }

type stubTxn struct{ row core.Row }

func (stubDB) CreateTable(*core.Schema) error           { return nil }
func (d stubDB) Begin(int) (engineapi.Txn, error)       { return stubTxn(d), nil }
func (stubDB) Name() string                             { return "stub" }
func (stubTxn) Commit() error                           { return nil }
func (stubTxn) Abort() error                            { return nil }
func (stubTxn) Insert(string, core.Row) error           { return nil }
func (stubTxn) DeleteByKey(string, ...core.Value) error { return nil }
func (t stubTxn) GetByKey(string, int, ...core.Value) (core.Row, error) {
	return t.row, nil
}
func (stubTxn) UpdateByKey(string, int, []core.Value, core.Row) error { return nil }
func (t stubTxn) ScanPrefix(_ string, _ int, _ []core.Value, fn func(core.Row) bool) error {
	for i := 0; i < groupRows && fn(t.row); i++ {
	}
	return nil
}

// probeSQLFront times the workload's select through the text path (plan
// cache hit), a prepared handle, and the miss path (a one-entry cache and
// two alternating texts, so every execution parses and compiles).
func probeSQLFront(sh probeShape, n int, out map[string]float64) error {
	if sh.schema == scanTable {
		n = n/20 + 1 // a scan statement returns 100 rows
	}
	front := sqlfront.NewFrontend("stub", stubDB{row: sh.schema.row(sh.seed, 7, 1)})
	sess := front.NewSession(0)
	if _, err := sess.Exec(sh.schema.ddl()); err != nil {
		return err
	}
	var err error
	text := func(sqls ...string) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, e := sess.Exec(sqls[i%len(sqls)], sh.selectArg...); e != nil {
					err = e
					return
				}
			}
		}
	}
	out["sqlfront.exec_text_ns"] = perItemNS(n, text(sh.selectSQL))
	st, perr := sess.Prepare(sh.selectSQL)
	if perr != nil {
		return perr
	}
	stmt := func(n int) {
		for i := 0; i < n; i++ {
			if _, e := st.Exec(sh.selectArg...); e != nil {
				err = e
				return
			}
		}
	}
	out["sqlfront.exec_stmt_ns"] = perItemNS(n, stmt)
	m0 := mallocs()
	stmt(n)
	out["sqlfront.allocs_per_stmt"] = float64(mallocs()-m0) / float64(n)
	front.SetPlanCacheSize(1)
	out["sqlfront.parse_miss_ns"] = perItemNS(n/4+1, text(sh.selectSQL, sh.selectSQL+" "))
	return err
}

// probeCore times engine calls on a fresh deployment preloaded like the
// workload's, so the probes neither disturb nor depend on the measured one.
func probeCore(sh probeShape, rows, n int, out map[string]float64) error {
	e, err := openEnv(sh.seed, sh.schema, false, rows)
	if err != nil {
		return err
	}
	defer e.close()
	tbl, err := e.engine.Table(sh.schema.table())
	if err != nil {
		return err
	}
	key := sh.schema.key
	row := func(id int64, ver uint32) core.Row { return sh.schema.row(sh.seed, id, ver) }
	r := &rng{s: sh.seed ^ 0xc0de}
	fail := firstError(&err)

	tx, berr := e.engine.Begin(0)
	if berr != nil {
		return berr
	}
	out["core.get_ns"] = perItemNS(n, func(n int) {
		for i := 0; i < n; i++ {
			_, _, e := tx.GetByKey(tbl, 0, key(r.intn(int64(rows)))...)
			fail(e)
		}
	})
	groups := int64(rows / groupRows)
	out["core.scan_ns_per_row"] = perItemNS(groupRows*(n/100+1), func(n int) {
		for g := 0; g < n/groupRows; g++ {
			lo := r.intn(groups) * groupRows
			seen := 0
			visit := func(core.RID, core.Row) bool { seen++; return true }
			if sh.schema == scanTable {
				fail(tx.ScanPrefix(tbl, 0, []core.Value{core.I(lo / groupRows)}, visit))
			} else {
				fail(tx.ScanKey(tbl, 0, key(lo), key(lo+groupRows), visit))
			}
			if seen != groupRows {
				fail(fmt.Errorf("probe scan saw %d rows", seen))
			}
		}
	})
	tx.Abort()

	// Updates and inserts: ids and rows are made outside the timers; each
	// batch is one transaction whose commit is not timed.
	nextID := int64(0)
	nextIns := insertBase(0)
	m := n / 10
	if m < 1 {
		m = 1
	}
	var rids []core.RID
	var newRows []core.Row
	var wtx *core.Txn
	prep := func(insert bool) {
		wtx, berr = e.engine.Begin(0)
		fail(berr)
		rids, newRows = rids[:0], newRows[:0]
		for i := 0; i < m; i++ {
			if insert {
				id := nextIns
				if sh.schema == scanTable {
					id = int64(rows) + nextIns - insertBase(0)
				}
				newRows = append(newRows, row(id, 0))
				nextIns++
				continue
			}
			id := nextID % int64(rows)
			nextID++
			rid, _, e := wtx.GetByKey(tbl, 0, key(id)...)
			fail(e)
			rids = append(rids, rid)
			newRows = append(newRows, row(id, 1))
		}
	}
	batches := func(insert bool) float64 {
		per := make([]float64, probeBatches)
		for b := range per {
			prep(insert)
			if err != nil {
				return 0
			}
			t0 := time.Now()
			for i := 0; i < m; i++ {
				if insert {
					_, e := wtx.Insert(tbl, newRows[i])
					fail(e)
				} else {
					fail(wtx.Update(tbl, rids[i], newRows[i]))
				}
			}
			per[b] = float64(time.Since(t0).Nanoseconds()) / float64(m)
			fail(wtx.Commit())
		}
		return median(per)
	}
	out["core.update_ns"] = batches(false)
	out["core.insert_ns"] = batches(true)

	// Commit: the return of CommitAsync (pre-commit: the log record is
	// queued, locks dropped) and a whole Begin-Update-Commit.
	one := n / 20
	if one < 1 {
		one = 1
	}
	pre := make([]int64, 0, one)
	full := make([]int64, 0, one)
	done := make(chan error, 1)
	for i := 0; i < 2*one && err == nil; i++ {
		id := nextID % int64(rows)
		nextID++
		t0 := time.Now()
		tx, berr := e.engine.Begin(0)
		if berr != nil {
			return berr
		}
		rid, _, e := tx.GetByKey(tbl, 0, key(id)...)
		fail(e)
		fail(tx.Update(tbl, rid, row(id, 2)))
		if i%2 == 0 {
			fail(tx.Commit())
			full = append(full, int64(time.Since(t0)))
			continue
		}
		t1 := time.Now()
		fail(tx.CommitAsync(func(e error) { done <- e }))
		pre = append(pre, int64(time.Since(t1)))
		fail(<-done)
	}
	out["core.precommit_ns"] = float64(quantile(pre, 0.5))
	out["core.commit_sync_us"] = float64(quantile(full, 0.5)) / 1e3
	return err
}

// probeIndex times the ART-backed index and the indirection array on keys
// of the workload's shape.
func probeIndex(sh probeShape, rows, n int, out map[string]float64) error {
	keys := make([][]byte, rows)
	for i := range keys {
		keys[i] = core.EncodeKey(nil, sh.schema.key(int64(i))...)
	}
	ix := index.New(index.Config{})
	var err error
	fail := firstError(&err)
	next := 0
	per := rows / probeBatches
	out["index.insert_ns"] = perItemNS(per, func(n int) {
		for i := 0; i < n; i++ {
			fail(ix.Insert(keys[next], uint64(next+1)))
			next++
		}
	})
	r := &rng{s: sh.seed ^ 0x1d}
	out["index.get_ns"] = perItemNS(n, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok, e := ix.Get(keys[r.intn(int64(next))]); e != nil || !ok {
				fail(fmt.Errorf("index probe: key missing (%v)", e))
			}
		}
	})
	spans := int64(next / groupRows)
	out["index.scan_ns_per_key"] = perItemNS(groupRows*(n/100+1), func(n int) {
		for g := 0; g < n/groupRows; g++ {
			lo := r.intn(spans) * groupRows
			seen := 0
			fail(ix.Scan(keys[lo], core.KeySuccessor(keys[lo+groupRows-1]), func([]byte, uint64) bool { seen++; return true }))
			if seen != groupRows {
				fail(fmt.Errorf("index probe: scan saw %d keys", seen))
			}
		}
	})

	pm := pia.New[core.Version](pia.Config{})
	rids := make([]pia.RID, 0, probeBatches*n)
	out["pia.alloc_ns"] = perItemNS(n, func(n int) {
		for i := 0; i < n; i++ {
			rid, e := pm.Alloc()
			fail(e)
			rids = append(rids, rid)
		}
	})
	var v core.Version
	for _, rid := range rids {
		fail(pm.Store(rid, &v))
	}
	out["pia.get_ns"] = perItemNS(n, func(n int) {
		for i := 0; i < n; i++ {
			if pm.Get(rids[r.intn(int64(len(rids)))]) == nil {
				fail(fmt.Errorf("pia probe: empty slot"))
			}
		}
	})
	return err
}

// probeLog times the log manager and the storage service below it on
// their own SRSS deployment: a 200 B synchronous append from one
// goroutine (the commit wait's floor), 16 KB asynchronous appends from two
// (bandwidth), a 4 KB PLog append and a 256 B read.
func probeLog(n int, out map[string]float64) error {
	svc := srss.New(srss.Config{Model: delay.Zero()})
	lm, err := wal.Open(wal.Config{Service: svc, Streams: nClients})
	if err != nil {
		return err
	}
	defer lm.Close()
	fail := firstError(&err)
	small := make([]byte, 200)
	out["wal.append_sync_us"] = perItemNS(n/4+1, func(n int) {
		for i := 0; i < n; i++ {
			_, e := lm.AppendSync(0, small)
			fail(e)
		}
	}) / 1e3

	big := make([]byte, 16<<10)
	per := n/20 + 1
	mbps := make([]float64, probeBatches)
	for b := range mbps {
		var wg, acks sync.WaitGroup
		var mu sync.Mutex
		t0 := time.Now()
		for g := 0; g < nClients; g++ {
			wg.Add(1)
			acks.Add(per)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					lm.Append(g, big, func(_ wal.Addr, e error) {
						if e != nil {
							mu.Lock()
							fail(e)
							mu.Unlock()
						}
						acks.Done()
					})
				}
			}(g)
		}
		wg.Wait()
		acks.Wait()
		mbps[b] = float64(nClients*per*len(big)) / 1e6 / time.Since(t0).Seconds()
	}
	out["wal.append_mbps"] = median(mbps)

	plog, cerr := svc.Create(srss.TierCompute)
	if cerr != nil {
		return cerr
	}
	page := make([]byte, 4<<10)
	appends := n/10 + 1
	out["srss.append_4k_us"] = perItemNS(appends, func(n int) {
		for i := 0; i < n; i++ {
			_, e := plog.Append(page)
			fail(e)
		}
	}) / 1e3
	buf := make([]byte, 256)
	r := &rng{s: 0x5255}
	size := plog.Size()
	out["srss.read_256b_ns"] = perItemNS(n, func(n int) {
		for i := 0; i < n; i++ {
			_, e := plog.ReadAt(buf, r.intn(size-int64(len(buf))))
			fail(e)
		}
	})
	return err
}

// runProbes fills out with every probe metric. n scales the iteration
// counts (a smoke run passes a small one).
func runProbes(sh probeShape, wireToo bool, rows, n int, out map[string]float64) error {
	runtime.GC() // the measured deployment is closed; do not time its garbage being collected
	if wireToo {
		if err := probeWire(sh, n, out); err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
	}
	if err := probeSQLFront(sh, n, out); err != nil {
		return fmt.Errorf("sqlfront probe: %w", err)
	}
	if err := probeCore(sh, rows, n, out); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if err := probeIndex(sh, rows, n, out); err != nil {
		return fmt.Errorf("index probe: %w", err)
	}
	if err := probeLog(n, out); err != nil {
		return fmt.Errorf("log probe: %w", err)
	}
	return nil
}
