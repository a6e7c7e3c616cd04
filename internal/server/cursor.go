// Streaming scans: the server side of the cursor protocol
// (OpScanOpen/OpScanNext/OpScanClose).
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
// the cursor and answer with the first page.
func (c *conn) scanOpen(rq request, p []byte) bool {
	fetch, sql, args, err := wire.DecodeScanOpen(p)
	if err != nil {
		return rq.corrupt(err)
	}
	// A cursor pins its own snapshot, which would not see an open explicit
	// transaction's writes -- refuse rather than surprise.
	if c.sess.InTxn() {
		return rq.fail(fmt.Errorf("%w: cannot open a cursor inside an explicit transaction", wire.ErrBadStatement))
	}
	if len(c.cursors) >= c.s.cfg.MaxCursors {
		return rq.fail(fmt.Errorf("%w: cursor table full (%d open)", wire.ErrBadStatement, len(c.cursors)))
	}
	slot, err := c.s.leaseSlot(c.tr)
	if err != nil {
		return rq.fail(err)
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
		return rq.fail(fmt.Errorf("%w: %w", wire.ErrBadStatement, err))
	}
	if fetch <= 0 {
		fetch = defaultFetchRows
	}
	if c.cursors == nil {
		c.cursors = make(map[uint64]*cursorEntry)
	}
	c.curSeq++
	ce := &cursorEntry{rs: rs, slot: slot, fetch: fetch}
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
	defer wire.PutBuf(rowsBP)
	rows := sqlfront.RowBuf{Data: (*rowsBP)[:0]}
	c.tr.Begin(obs.StageCursorProduce)
	done, err := ce.rs.NextPage(&rows, fetch, pageByteCap)
	c.tr.End(obs.StageCursorProduce)
	*rowsBP = rows.Data
	if done || err != nil {
		c.closeCursor(id, ce)
	}
	if err != nil {
		return rq.fail(err)
	}
	return rq.okBuilt(func(buf []byte) []byte {
		return wire.AppendCursorPage(buf, id, done, ce.rs.Columns, rows.N, rows.Data)
	})
}

// closeCursor finishes a cursor's stream (unwinding its producer and its
// pinned transaction), returns its worker slot and drops it from the table.
func (c *conn) closeCursor(id uint64, ce *cursorEntry) {
	ce.rs.Close()
	c.s.slots <- ce.slot
	delete(c.cursors, id)
	c.s.mCursorsOpen.Add(-1)
}
