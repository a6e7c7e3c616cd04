// Streaming queries and batch writes: the client side of the cursor
// protocol (OpScanOpen/OpScanNext/OpScanClose) and of OpExecBatch.
package client

import (
	"hiengine/internal/core"
	"hiengine/internal/wire"
)

// Rows iterates a streaming SELECT: the server executes the statement
// against one pinned MVCC snapshot and hands rows back in bounded pages,
// so a result of any size flows through a fixed memory footprint on both
// sides (no wire.MaxPayload limit). OpScanNext round trips are issued
// transparently as pages drain.
//
// Usage mirrors database/sql:
//
//	rows, err := c.Query("SELECT k, v FROM t WHERE s = ?", core.I(1))
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		row := rows.Row()
//		...
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows is bound to its session and, like the session, is not safe for
// concurrent use. Close is idempotent and required unless Next returned
// false (exhaustion or error closes the cursor on both sides); Rows from
// Client.Query own their session and release it on close.
type Rows struct {
	s       *Session
	ownSess bool
	id      uint64
	fetch   int
	cols    []string

	page []core.Row
	idx  int
	row  core.Row

	srvDone bool // server sent the final page and auto-closed the cursor
	closed  bool
	err     error
}

// Query opens a streaming SELECT on a pooled session and returns its row
// iterator; the session is released when the Rows closes. Open-time
// failures (parse, plan, admission) retry retryable codes with backoff
// exactly like Exec -- nothing has streamed yet, so replaying the open is
// safe.
func (c *Client) Query(sql string, args ...core.Value) (*Rows, error) {
	return c.QueryTraced(nil, sql, args...)
}

// QueryTraced is Query with dt attached to the session for the life of the
// cursor: the open and every page fetch record hops into dt (nil =
// untraced).
func (c *Client) QueryTraced(dt *DistTrace, sql string, args ...core.Value) (*Rows, error) {
	s, err := c.lease(dt)
	if err != nil {
		return nil, err
	}
	r, err := s.Query(sql, args...)
	if err != nil {
		s.Close()
		return nil, err
	}
	r.ownSess = true
	return r, nil
}

// Query opens a streaming SELECT on this session. The cursor pins its own
// MVCC snapshot server-side: the stream is consistent as of the open
// regardless of concurrent writers. Refused inside an open transaction
// (the snapshot would not see the transaction's own writes). An open
// cursor is tracked on the session until it is exhausted or closed, so
// that Session.Close can release it.
func (s *Session) Query(sql string, args ...core.Value) (*Rows, error) {
	fetch := s.fetchSize()
	resp, err := s.do(wire.OpScanOpen, wire.AppendScanOpen(nil, fetch, sql, args))
	if err != nil {
		return nil, err
	}
	r := &Rows{s: s, fetch: fetch}
	if err := r.loadPage(resp.Body); err != nil {
		return nil, err
	}
	if !r.srvDone {
		if s.rows == nil {
			s.rows = make(map[uint64]*Rows)
		}
		s.rows[r.id] = r
	}
	return r, nil
}

// loadPage installs one cursor-page body as the current page.
func (r *Rows) loadPage(body []byte) error {
	id, done, res, err := wire.DecodeCursorPage(body)
	if err != nil {
		return err
	}
	r.id, r.cols, r.page, r.idx, r.srvDone = id, res.Columns, res.Rows, 0, done
	if done {
		delete(r.s.rows, id)
	}
	return nil
}

// SetFetchSize sets the rows-per-page hint for this session's streaming
// queries (n <= 0 restores the client default). The server additionally
// bounds every page by bytes, so a large fetch size with wide rows still
// streams in bounded chunks.
func (s *Session) SetFetchSize(n int) { s.fetch = n }

// FetchSize returns the effective rows-per-page hint for this session's
// streaming queries.
func (s *Session) FetchSize() int { return s.fetchSize() }

func (s *Session) fetchSize() int {
	if s.fetch > 0 {
		return s.fetch
	}
	return s.c.opts.FetchSize
}

// Next advances to the next row, fetching the next page from the server
// when the current one drains (one OpScanNext round trip; of its failures
// only an admission refusal is retried, anything later may have consumed
// rows and is terminal for the stream). It returns false at exhaustion or
// on error; Err distinguishes the two.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	for r.idx >= len(r.page) {
		if r.srvDone {
			r.finish(nil)
			return false
		}
		resp, err := r.s.do(wire.OpScanNext, wire.EncodeScanNext(r.id, r.fetch))
		if err == nil {
			err = r.loadPage(resp.Body)
		}
		if err != nil {
			r.finish(err)
			return false
		}
	}
	r.row = r.page[r.idx]
	r.idx++
	return true
}

// Row returns the current row (valid after Next returned true, until the
// next call to Next).
func (r *Rows) Row() core.Row { return r.row }

// Columns returns the projected column list (nil for SELECT *).
func (r *Rows) Columns() []string { return r.cols }

// Err returns the error that terminated iteration, nil after a clean
// exhaustion or before one.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor (a no-op server-side if the stream already
// finished) and, for Client.Query rows, the leased session. Idempotent.
func (r *Rows) Close() error {
	r.finish(nil)
	return r.err
}

func (r *Rows) finish(err error) {
	if r.closed {
		return
	}
	r.closed = true
	r.err = err
	if !r.srvDone {
		delete(r.s.rows, r.id)
		if !r.s.closed && r.s.w.healthy() {
			// Best effort: the server reaps abandoned cursors with the
			// connection anyway.
			r.s.do(wire.OpScanClose, wire.EncodeHandle(r.id))
		}
	}
	if r.ownSess {
		r.s.Close()
	}
}

// ExecBatch ships a batch of statements as one frame and waits for its
// single response, returning the per-statement affected counts. Outside a
// transaction the batch is atomic (all or nothing, acknowledged at
// durability) and retryable codes retry whole -- a failed batch left
// nothing applied; inside one it is simply N statements of the open
// transaction and errors surface immediately, like Exec.
func (s *Session) ExecBatch(stmts []wire.BatchStmt) ([]int, error) {
	if len(stmts) == 0 {
		return nil, nil
	}
	r, err := s.do(wire.OpExecBatch, wire.AppendExecBatch(nil, stmts))
	if err != nil {
		return nil, err
	}
	aff, csn, err := wire.DecodeBatchResult(r.Body)
	if err != nil {
		return nil, err
	}
	s.w.noteCSN(csn)
	return aff, nil
}

// ExecBatch runs one atomic batch on a pooled connection.
func (c *Client) ExecBatch(stmts []wire.BatchStmt) ([]int, error) {
	return c.ExecBatchTraced(nil, stmts)
}

// ExecBatchTraced is ExecBatch on a session carrying dt (nil = untraced).
func (c *Client) ExecBatchTraced(dt *DistTrace, stmts []wire.BatchStmt) (aff []int, err error) {
	err = c.withSession(dt, func(s *Session) error {
		aff, err = s.ExecBatch(stmts)
		return err
	})
	return aff, err
}
