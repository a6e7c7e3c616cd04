// Streaming scans: the server side of the cursor protocol
// (OpScanOpen/OpScanNext/OpScanClose). A cursor is a connection-scoped
// handle over a sqlfront.RowStream: one SELECT pinned to its own MVCC
// snapshot, its bounded pages pulled by the read loop. Each cursor leases
// its own worker slot (a pinned snapshot is engine work in flight, like a
// transaction) until the scan is exhausted, closed, or the connection dies.
// The table is bounded (Config.maxCursors); while any cursor is open the
// read loop waits under readTimeout, not idleTimeout, and teardown closes
// every cursor, so an abandoned one pins its slot for one read budget at
// most. Graceful drain finishes the page in flight, then refuses OpScanNext
// with CodeClosed (handle()'s admission check).
package server

import (
	"fmt"
	"time"

	"hiengine/internal/core"
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
// leases, and its default page size. A closed one's entry goes to the
// connection's free list, and the next cursor reuses its stream and the row
// its open request's arguments were decoded into.
type cursorEntry struct {
	rs    sqlfront.RowStream
	slot  int
	fetch int
	args  []core.Value
}

// leaseSlot acquires a worker slot from the pool with the bounded slotWait,
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
	t := time.NewTimer(s.cfg.slotWait)
	defer t.Stop()
	select {
	case slot := <-s.slots:
		return slot, nil
	case <-t.C:
		s.mSlotWaitBusy.Inc()
		return 0, fmt.Errorf("no free worker slot in %v: %w", s.cfg.slotWait, ErrServerBusy)
	}
}

// scanOpen handles OpScanOpen: plan the SELECT, pin its snapshot under a
// freshly leased worker slot, register the cursor, answer its first page.
// The SQL text and the arguments are decoded borrowed, the arguments into
// the row of the entry the cursor takes: the plan cache looks the text up
// without a copy, and the stream copies the arguments it keeps
// (sqlfront.Session.OpenStream).
func (c *conn) scanOpen(rq request, p []byte) bool {
	var ce *cursorEntry
	if n := len(c.curFree); n > 0 {
		ce, c.curFree = c.curFree[n-1], c.curFree[:n-1]
	} else {
		ce = new(cursorEntry)
	}
	fetch, sql, args, err := wire.DecodeScanOpen(p, ce.args[:0])
	if args != nil {
		ce.args = args
	}
	defer clear(args) // the frame's bytes, once the stream has its copies
	fail := func(err error) bool {
		c.curFree = append(c.curFree, ce)
		return rq.fail(err)
	}
	switch {
	case err != nil:
		c.curFree = append(c.curFree, ce)
		return rq.corrupt(err)
	case c.sess.InTxn():
		// A cursor pins its own snapshot, which would not see an open
		// explicit transaction's writes -- refuse rather than surprise.
		return fail(fmt.Errorf("%w: cannot open a cursor inside an explicit transaction", wire.ErrBadStatement))
	case len(c.cursors) >= c.s.cfg.maxCursors:
		return fail(fmt.Errorf("%w: cursor table full (%d open)", wire.ErrBadStatement, len(c.cursors)))
	}
	slot, err := c.s.leaseSlot(c.tr)
	if err != nil {
		return fail(err)
	}
	c.tr.Begin(obs.StageCursorOpen)
	err = c.sess.OpenStream(&ce.rs, slot, sql, args...)
	c.tr.End(obs.StageCursorOpen)
	if err != nil {
		c.s.slots <- slot
		// Engine sentinels (closed, busy) keep their codes through the
		// wrap; everything else from open is a bad request.
		return fail(fmt.Errorf("%w: %w", wire.ErrBadStatement, err))
	}
	if fetch <= 0 {
		fetch = defaultFetchRows
	}
	if c.cursors == nil {
		c.cursors = make(map[uint64]*cursorEntry)
	}
	ce.slot, ce.fetch = slot, fetch
	c.curSeq++
	c.cursors[c.curSeq] = ce
	c.s.mCursorsOpen.Add(1)
	return c.cursorPage(rq, c.curSeq, ce, fetch)
}

// scanNext handles OpScanNext: pull the next page from an open cursor. An
// unknown id -- never opened, exhausted (the server auto-closes on the done
// page), failed mid-scan, or torn down -- answers CodeCursorGone.
func (c *conn) scanNext(rq request, p []byte) bool {
	id, fetch, err := wire.DecodeScanNext(p)
	if err != nil {
		return rq.corrupt(err)
	}
	ce := c.cursors[id]
	if ce == nil {
		return rq.fail(fmt.Errorf("%w: cursor %d", wire.ErrCursorGone, id))
	}
	return c.cursorPage(rq, id, ce, fetch)
}

// scanClose handles OpScanClose. Idempotent like OpCloseStmt: closing an
// unknown or already-finished cursor succeeds, so clients can close
// defensively.
func (c *conn) scanClose(rq request, p []byte) bool {
	id, err := wire.DecodeHandle(p)
	if err != nil {
		return rq.corrupt(err)
	}
	if ce := c.cursors[id]; ce != nil {
		c.closeCursor(id, ce)
	}
	return rq.ok(nil)
}

// cursorPage pulls one bounded page off the cursor's stream and responds
// with it. The page is bounded twice: at most fetch rows (the cursor's
// default when the request passed 0) and at most pageByteCap encoded bytes,
// whichever lands first. On exhaustion the page carries done=true and the
// cursor auto-closes; a mid-scan error closes the cursor and answers the
// classified error.
func (c *conn) cursorPage(rq request, id uint64, ce *cursorEntry, fetch int) bool {
	if fetch <= 0 {
		fetch = ce.fetch
	}
	rowsBP := wire.GetBuf()
	c.rows = sqlfront.RowBuf{Data: (*rowsBP)[:0]}
	defer c.putRows(rowsBP)
	c.tr.Begin(obs.StageCursorProduce)
	done, err := ce.rs.NextPage(&c.rows, fetch, pageByteCap)
	c.tr.End(obs.StageCursorProduce)
	if done || err != nil {
		c.closeCursor(id, ce)
	}
	if err != nil {
		return rq.fail(err)
	}
	return rq.okBuilt(func(buf []byte) []byte {
		return wire.AppendCursorPage(buf, id, done, ce.rs.Columns, c.rows.N, c.rows.Data)
	})
}

// closeCursor ends a cursor's stream, returns its slot and frees its entry.
func (c *conn) closeCursor(id uint64, ce *cursorEntry) {
	ce.rs.Close()
	c.s.slots <- ce.slot
	delete(c.cursors, id)
	c.curFree = append(c.curFree, ce)
	c.s.mCursorsOpen.Add(-1)
}
