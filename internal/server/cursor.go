// Streaming scans and batch writes: the server side of the cursor protocol
// (OpScanOpen/OpScanNext/OpScanClose) and of OpExecBatch.
//
// A cursor is a connection-scoped handle over a sqlfront.RowStream: one
// SELECT pinned to its own MVCC snapshot, drained in bounded pages. Each
// cursor leases its own worker slot (a pinned snapshot is engine work in
// flight, exactly like a transaction) and holds it until the scan is
// exhausted, closed, or the connection dies. The cursor table is bounded
// (Config.MaxCursors); reaping rides the connection lifecycle -- while any
// cursor is open the read loop waits under ReadTimeout instead of
// IdleTimeout, and teardown closes every cursor -- so an abandoned cursor
// can pin its slot for at most one read budget. Graceful drain finishes
// the page in flight and then refuses further OpScanNext with CodeClosed
// (handle()'s admission check), cancelling the cursor with the connection.
package server

import (
	"fmt"
	"strings"
	"time"

	"hiengine/internal/obs"
	"hiengine/internal/sqlfront"
	"hiengine/internal/wire"
)

// defaultFetchRows is the page row bound when the client requests none.
const defaultFetchRows = 256

// pageByteCap bounds a cursor page's encoded row bytes: the pager stops
// filling a page once it is reached, so peak per-scan buffering is one page
// (plus at most one row of overshoot) regardless of fetch size -- far below
// wire.MaxPayload, and small enough that a draining server finishes any
// in-flight page quickly.
const pageByteCap = 1 << 20

// cursorEntry is one open cursor: its row stream, the worker slot it
// leases, and its default page size.
type cursorEntry struct {
	rs    *sqlfront.RowStream
	slot  int
	fetch int
}

// leaseSlot acquires a worker slot from the pool with the bounded SlotWait,
// independent of the connection's per-transaction lease (cursors hold their
// own). tr may be nil.
func (s *Server) leaseSlot(tr *obs.Trace) (int, error) {
	tr.Begin(obs.StageSlotWait)
	defer tr.End(obs.StageSlotWait)
	select {
	case slot := <-s.slots:
		return slot, nil
	default:
	}
	t := time.NewTimer(s.cfg.SlotWait)
	defer t.Stop()
	select {
	case slot := <-s.slots:
		return slot, nil
	case <-t.C:
		s.mSlotWaitBusy.Inc()
		return 0, fmt.Errorf("no free worker slot in %v: %w", s.cfg.SlotWait, ErrServerBusy)
	}
}

// scanOpen handles OpScanOpen: parse/plan the SELECT, pin its snapshot in a
// dedicated stream transaction under a freshly leased worker slot, register
// the cursor and answer with the first page. Returns false only on a
// protocol violation (corrupt payload).
func (c *conn) scanOpen(reqID uint64, payload []byte, finish func(error, []byte)) bool {
	fetch, sql, args, err := wire.DecodeScanOpen(payload)
	if err != nil {
		c.s.mProtoErrs.Inc()
		finish(err, nil)
		return false
	}
	// A cursor pins its own snapshot, which would not see an open explicit
	// transaction's writes -- refuse rather than surprise.
	if c.sess.InTxn() {
		finish(fmt.Errorf("%w: cannot open a cursor inside an explicit transaction", wire.ErrBadStatement), nil)
		return true
	}
	if len(c.cursors) >= c.s.cfg.MaxCursors {
		finish(fmt.Errorf("%w: cursor table full (%d open)", wire.ErrBadStatement, len(c.cursors)), nil)
		return true
	}
	slot, err := c.s.leaseSlot(c.tr)
	if err != nil {
		finish(err, nil)
		return true
	}
	// The stream gets its own throwaway session bound to the leased slot:
	// the connection's session keeps serving interleaved statements while
	// the cursor is open, and an engine transaction must stay
	// single-goroutine (the stream's producer owns it). That ownership
	// split is why cursor stages are attributed here on the connection's
	// trace: the producer's transaction can never carry them.
	c.tr.Begin(obs.StageCursorOpen)
	rs, err := c.s.cfg.Frontend.NewSession(slot).ExecStream(sql, args...)
	c.tr.End(obs.StageCursorOpen)
	if err != nil {
		c.s.slots <- slot
		// Engine sentinels (closed, busy) keep their codes through the
		// wrap; everything else from open is a bad request.
		finish(fmt.Errorf("%w: %w", wire.ErrBadStatement, err), nil)
		return true
	}
	if fetch <= 0 {
		fetch = defaultFetchRows
	}
	if c.cursors == nil {
		c.cursors = make(map[uint64]*cursorEntry)
	}
	c.curSeq++
	id := c.curSeq
	ce := &cursorEntry{rs: rs, slot: slot, fetch: fetch}
	c.cursors[id] = ce
	c.s.mCursorsOpen.Add(1)
	c.cursorPage(reqID, id, ce, fetch, finish)
	return true
}

// scanNext handles OpScanNext: pull the next page from an open cursor. An
// unknown id -- never opened, exhausted (the server auto-closes on the done
// page), failed mid-scan, or torn down -- answers CodeCursorGone.
func (c *conn) scanNext(reqID uint64, payload []byte, finish func(error, []byte)) bool {
	id, fetch, err := wire.DecodeScanNext(payload)
	if err != nil {
		c.s.mProtoErrs.Inc()
		finish(err, nil)
		return false
	}
	ce := c.cursors[id]
	if ce == nil {
		finish(fmt.Errorf("%w: cursor %d", wire.ErrCursorGone, id), nil)
		return true
	}
	c.cursorPage(reqID, id, ce, fetch, finish)
	return true
}

// scanClose handles OpScanClose. Idempotent like OpCloseStmt: closing an
// unknown or already-finished cursor succeeds, so clients can close
// defensively.
func (c *conn) scanClose(payload []byte, finish func(error, []byte)) bool {
	id, err := wire.DecodeScanClose(payload)
	if err != nil {
		c.s.mProtoErrs.Inc()
		finish(err, nil)
		return false
	}
	if ce := c.cursors[id]; ce != nil {
		c.closeCursor(id, ce)
	}
	finish(nil, nil)
	return true
}

// cursorPage pulls one bounded page off the cursor's stream and responds
// with it. The page is bounded twice: at most fetch rows (the cursor's
// default when the request passed 0) and at most pageByteCap encoded bytes,
// whichever lands first. On exhaustion the page carries done=true and the
// cursor auto-closes; a mid-scan error closes the cursor and answers the
// classified error.
func (c *conn) cursorPage(reqID, id uint64, ce *cursorEntry, fetch int, finish func(error, []byte)) {
	if fetch <= 0 {
		fetch = ce.fetch
	}
	rowsBP := wire.GetBuf()
	rows := sqlfront.RowBuf{Data: (*rowsBP)[:0]}
	c.tr.Begin(obs.StageCursorProduce)
	done, serr := ce.rs.NextPage(&rows, fetch, pageByteCap)
	c.tr.End(obs.StageCursorProduce)
	*rowsBP = rows.Data
	if serr != nil {
		c.closeCursor(id, ce)
		wire.PutBuf(rowsBP)
		finish(serr, nil)
		return
	}
	if done {
		c.closeCursor(id, ce)
	}
	bp := wire.GetBuf()
	body := wire.AppendCursorPage((*bp)[:0], id, done, ce.rs.Columns, rows.N, rows.Data)
	finish(nil, body)
	*bp = body
	wire.PutBuf(bp)
	wire.PutBuf(rowsBP)
}

// closeCursor finishes a cursor's stream (unwinding its producer and its
// pinned transaction), returns its worker slot and drops it from the table.
func (c *conn) closeCursor(id uint64, ce *cursorEntry) {
	ce.rs.Close()
	c.s.slots <- ce.slot
	delete(c.cursors, id)
	c.s.mCursorsOpen.Add(-1)
}

// closeAllCursors is teardown's cursor cleanup: every open cursor's
// snapshot and slot is released with the connection, which is also how
// idle-cursor reaping works (the read-loop timeout fails the connection,
// teardown reaps the cursors).
func (c *conn) closeAllCursors() {
	for id, ce := range c.cursors {
		c.closeCursor(id, ce)
	}
}

// isTxnControlText reports whether sql is a bare transaction verb (any
// case, optional trailing semicolon).
func isTxnControlText(sql string) bool {
	s := strings.ToUpper(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";")))
	return s == "BEGIN" || s == "COMMIT" || s == "ROLLBACK"
}

// execBatch handles OpExecBatch: N statements in one frame, one response
// with a per-statement affected vector. Outside an explicit transaction the
// batch is atomic -- it opens its own transaction and the response defers
// to the commit's durability callback, riding the same pipelined
// group-commit path as OpCommit. Inside one, the batch is simply N
// statements of the open transaction and answers immediately (durability
// comes with the eventual COMMIT). Any statement error aborts the rest of
// the batch; an auto-batch is rolled back whole. Transaction verbs inside a
// batch are refused -- they would break the one-response contract.
func (c *conn) execBatch(reqID uint64, payload []byte, finish func(error, []byte), release func()) bool {
	stmts, err := wire.DecodeExecBatch(payload)
	if err != nil {
		c.s.mProtoErrs.Inc()
		finish(err, nil)
		return false
	}
	if err := c.acquireSlot(); err != nil {
		finish(err, nil)
		return true
	}
	auto := !c.sess.InTxn()
	if auto {
		if err := c.sess.Begin(); err != nil {
			c.releaseSlot()
			finish(err, nil)
			return true
		}
	}
	fail := func(err error) {
		if auto && c.sess.InTxn() {
			c.sess.Rollback()
		}
		c.releaseSlot()
		finish(err, nil)
	}
	affected := make([]int, 0, len(stmts))
	for i, bs := range stmts {
		if isTxnControlText(bs.SQL) {
			fail(fmt.Errorf("%w: batch statement %d: transaction control not allowed in a batch", wire.ErrBadStatement, i))
			return true
		}
		st, err := c.sess.Prepare(bs.SQL)
		if err != nil {
			fail(fmt.Errorf("%w: batch statement %d: %v", wire.ErrBadStatement, i, err))
			return true
		}
		res, err := st.Exec(bs.Args...)
		if err != nil {
			fail(fmt.Errorf("batch statement %d: %w", i, err))
			return true
		}
		affected = append(affected, res.Affected)
	}
	if !auto {
		bp := wire.GetBuf()
		body := wire.AppendBatchResult((*bp)[:0], affected, c.sess.LastCSN())
		finish(nil, body)
		*bp = body
		wire.PutBuf(bp)
		return true
	}
	// Atomic auto-batch: answer at durability, exactly like commit().
	start := time.Now()
	respondOK := func(tr *obs.Trace) {
		bp := wire.GetBuf()
		body := wire.AppendBatchResult((*bp)[:0], affected, c.sess.LastCSN())
		c.respondTr(reqID, tr, wire.CodeOK, "", body)
		*bp = body
		wire.PutBuf(bp)
	}
	tr := c.tr
	c.tr = nil
	async, err := c.sess.CommitAsync(func(cerr error) {
		c.s.mCommitDur.Record(time.Since(start).Nanoseconds())
		if cerr != nil {
			c.respondTrErr(reqID, tr, cerr)
		} else {
			respondOK(tr)
		}
		release()
	})
	c.sess.SetTrace(nil)
	c.releaseSlot()
	if async {
		return true
	}
	if err != nil {
		c.respondTrErr(reqID, tr, err)
	} else {
		respondOK(tr)
	}
	release()
	return true
}
