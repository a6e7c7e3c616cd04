package main

import (
	"fmt"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/sqlfront"
	"hiengine/internal/wire"
)

// The statements every workload prepares once per session.
const (
	sqlSelect     = "SELECT k, c FROM bench WHERE id = ?"
	sqlUpdate     = "UPDATE bench SET k = ?, c = ? WHERE id = ?"
	sqlInsert     = "INSERT INTO bench VALUES (?, ?, ?)"
	sqlScan       = "SELECT id, c FROM scanb WHERE grp = ?"
	sqlScanUpdate = "UPDATE scanb SET k = ?, c = ? WHERE grp = ? AND id = ?"

	cursorFetch = 32 // rows per cursor page: a 100-row group is 4 pages
)

// cursorRequests is the request frames one cursor scan of a 100-row group
// needs at cursorFetch rows a page: the open and three further pages. Every
// other call the drivers make is one frame.
const cursorRequests = 4

// oltpAPI is the calls an oltp op makes, bound either to a wire session
// (client -> wire -> server -> sqlfront ...) or to an in-process
// sqlfront.Session, so both workloads run the very same op code.
type oltpAPI struct {
	begin  func() error
	sel    func(id int64) (rows int, err error)
	upd    func(k int64, c string, id int64) error
	ins    func(row core.Row) error
	commit func() error
	abort  func() // after a failed op: roll back if a transaction is open
	close  func()
	sess   *client.Session // the wire session, to turn tracing on for; nil in process
}

// oltp is one oltp_wire or oltp_inproc client: Begin, two prepared point
// SELECTs, an UPDATE by primary key, an INSERT, Commit. Over the wire that
// is six round trips.
type oltp struct {
	api oltpAPI
	m   *model
	c   int
	gen *oltpGen
	tr  *tracer
}

// execer is a prepared statement of either kind: *client.Stmt returns a
// *wire.Result, *sqlfront.Stmt a *sqlfront.Result.
type execer[R any] interface {
	Exec(args ...core.Value) (R, error)
}

// bindStatements prepares the three oltp statements through prepare and
// fills api's statement calls with them; rows counts a result's rows.
func bindStatements[R any, S execer[R]](api *oltpAPI, prepare func(string) (S, error), rows func(R) int) error {
	var st [3]S
	for i, sql := range [3]string{sqlSelect, sqlUpdate, sqlInsert} {
		var err error
		if st[i], err = prepare(sql); err != nil {
			return fmt.Errorf("prepare %q: %w", sql, err)
		}
	}
	api.sel = func(id int64) (int, error) {
		res, err := st[0].Exec(core.I(id))
		if err != nil {
			return 0, err
		}
		return rows(res), nil
	}
	api.upd = func(k int64, c string, id int64) error {
		_, err := st[1].Exec(core.I(k), core.S(c), core.I(id))
		return err
	}
	api.ins = func(row core.Row) error {
		_, err := st[2].Exec(row...)
		return err
	}
	return nil
}

func wireOLTP(e *env) (oltpAPI, error) {
	sess, err := e.cl.Session()
	if err != nil {
		return oltpAPI{}, err
	}
	api := oltpAPI{
		begin:  sess.Begin,
		commit: sess.Commit,
		abort: func() {
			if sess.InTxn() {
				sess.Rollback()
			}
		},
		close: sess.Close,
		sess:  sess,
	}
	if err := bindStatements(&api, sess.Prepare, func(r *wire.Result) int { return len(r.Rows) }); err != nil {
		sess.Close()
		return oltpAPI{}, err
	}
	return api, nil
}

func inprocOLTP(e *env, slots chan int) (oltpAPI, error) {
	p := newInproc(e, slots)
	api := oltpAPI{begin: p.begin, commit: p.commit, abort: p.rollback, close: func() {}}
	err := bindStatements(&api, p.sess.Prepare, func(r *sqlfront.Result) int { return len(r.Rows) })
	return api, err
}

func (d *oltp) close() { d.api.close() }

func (d *oltp) traceWith(t *tracer) { d.tr = t }

func (d *oltp) session() *client.Session { return d.api.sess }

func (d *oltp) op(j int) (int, error) {
	o := d.gen.next()
	opT0 := d.tr.now()
	err := d.txn(j, o)
	d.tr.endOp(j, opT0)
	if err != nil {
		d.api.abort()
		return 0, err
	}
	d.m.ver[o.upd]++
	return 2 * benchRowBytes, nil
}

func (d *oltp) txn(j int, o oltpOp) error {
	t0 := d.tr.begin()
	err := d.api.begin()
	d.tr.call(j, spanBegin, t0)
	if err != nil {
		return err
	}
	for _, id := range [2]int64{o.read1, o.read2} {
		t0 = d.tr.begin()
		n, err := d.api.sel(id)
		d.tr.call(j, spanSelect, t0)
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("point select of key %d returned %d rows", id, n)
		}
	}
	ver := d.m.ver[o.upd] + 1
	t0 = d.tr.begin()
	err = d.api.upd(rowK(d.m.seed, o.upd, ver), rowText(d.m.seed, o.upd, ver), o.upd)
	d.tr.call(j, spanUpdate, t0)
	if err != nil {
		return err
	}
	t0 = d.tr.begin()
	err = d.api.ins(benchRow(d.m.seed, d.m.insertID(d.c, j, 0), 0))
	d.tr.call(j, spanInsert, t0)
	if err != nil {
		return err
	}
	t0 = d.tr.begin()
	err = d.api.commit()
	d.tr.call(j, spanCommit, t0)
	return err
}

// inproc is an in-process session: a sqlfront.Session whose worker slot is
// leased per transaction from a pool the size of the server's, released
// once the commit is handed to the log, and whose commit waits for
// durability -- what server.conn does for a remote session.
type inproc struct {
	sess  *sqlfront.Session
	slots chan int
	done  chan error
	slot  int
}

func newSlots() chan int {
	slots := make(chan int, engineWorkers) // one token per worker slot
	for i := 0; i < engineWorkers; i++ {
		slots <- i
	}
	return slots
}

func newInproc(e *env, slots chan int) *inproc {
	return &inproc{sess: e.front.NewSession(0), slots: slots, done: make(chan error, 1)}
}

func (p *inproc) begin() error {
	p.slot = <-p.slots
	p.sess.SetWorker(p.slot)
	if err := p.sess.Begin(); err != nil {
		p.slots <- p.slot
		return err
	}
	return nil
}

func (p *inproc) commit() error {
	async, err := p.sess.CommitAsync(func(err error) { p.done <- err })
	p.slots <- p.slot
	if async {
		return <-p.done
	}
	return err
}

func (p *inproc) rollback() {
	if p.sess.InTxn() {
		p.sess.Rollback()
		p.slots <- p.slot
	}
}

// scanWire is one scan_wire client: an auto-commit UPDATE of one row of a
// group, then the group's 100-row prefix scan -- every 10th time through
// the cursor API in pages of 32.
type scanWire struct {
	m        *model
	gen      *scanGen
	sess     *client.Session
	upd, sel *client.Stmt
	tr       *tracer
	rows     []core.Row // cursor rows of the current op
}

func newScanWire(e *env, m *model, c int) (*scanWire, error) {
	sess, err := e.cl.Session()
	if err != nil {
		return nil, err
	}
	sess.SetFetchSize(cursorFetch)
	d := &scanWire{m: m, gen: newScanGen(m.seed, c, m.rows/groupRows), sess: sess}
	if d.upd, err = sess.Prepare(sqlScanUpdate); err == nil {
		d.sel, err = sess.Prepare(sqlScan)
	}
	if err != nil {
		sess.Close()
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return d, nil
}

func (d *scanWire) close() { d.sess.Close() }

func (d *scanWire) traceWith(t *tracer) { d.tr = t }

func (d *scanWire) session() *client.Session { return d.sess }

func (d *scanWire) op(j int) (int, error) {
	o := d.gen.next()
	opT0 := d.tr.now()
	err := d.updateAndScan(j, o)
	d.tr.endOp(j, opT0)
	if err != nil {
		return 0, err
	}
	return scanRowBytes, nil
}

func (d *scanWire) updateAndScan(j int, o scanOp) error {
	flat := scanID(o.grp, o.id)
	ver := d.m.ver[flat] + 1
	text := rowText(d.m.seed, flat, ver)
	t0 := d.tr.begin()
	_, err := d.upd.Exec(core.I(rowK(d.m.seed, flat, ver)), core.S(text), core.I(o.grp), core.I(o.id))
	d.tr.call(j, spanUpdate, t0)
	if err != nil {
		return err
	}
	d.m.ver[flat] = ver // acked: the scan below must already see it

	if !o.cursor {
		t0 = d.tr.begin()
		res, err := d.sel.Exec(core.I(o.grp))
		d.tr.call(j, spanScan, t0)
		if err != nil {
			return err
		}
		return checkScan(res.Rows, o.id, text)
	}
	t0 = d.tr.begin()
	rows, err := d.sess.Query(sqlScan, core.I(o.grp))
	if err != nil {
		d.tr.call(j, spanScanCursor, t0)
		return err
	}
	d.rows = d.rows[:0]
	for rows.Next() {
		d.rows = append(d.rows, rows.Row())
		d.tr.collect(j)
	}
	err = rows.Err()
	rows.Close()
	d.tr.call(j, spanScanCursor, t0)
	if err != nil {
		return err
	}
	return checkScan(d.rows, o.id, text)
}

// ingest is one ingest_recover client: a transaction of 128 prepared
// INSERTs into its own ascending key range, then commit, in process.
type ingest struct {
	*inproc
	m   *model
	c   int
	ins *sqlfront.Stmt
	tr  *tracer
}

func newIngest(e *env, m *model, c int, slots chan int) (*ingest, error) {
	d := &ingest{inproc: newInproc(e, slots), m: m, c: c}
	var err error
	if d.ins, err = d.sess.Prepare(sqlInsert); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return d, nil
}

func (d *ingest) close() {}

func (d *ingest) traceWith(t *tracer) { d.tr = t }

func (d *ingest) session() *client.Session { return nil }

func (d *ingest) op(j int) (int, error) {
	opT0 := d.tr.now()
	err := d.txn(j)
	d.tr.endOp(j, opT0)
	if err != nil {
		d.rollback()
		return 0, err
	}
	return ingestBatch * benchRowBytes, nil
}

func (d *ingest) txn(j int) error {
	t0 := d.tr.begin()
	err := d.begin()
	d.tr.call(j, spanBegin, t0)
	if err != nil {
		return err
	}
	t0 = d.tr.begin()
	for i := 0; i < ingestBatch; i++ {
		if _, err := d.ins.Exec(benchRow(d.m.seed, d.m.insertID(d.c, j, i), 0)...); err != nil {
			d.tr.call(j, spanInsert, t0)
			return err
		}
	}
	d.tr.call(j, spanInsert, t0)
	t0 = d.tr.begin()
	err = d.commit()
	d.tr.call(j, spanCommit, t0)
	return err
}
