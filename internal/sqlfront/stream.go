package sqlfront

import (
	"errors"
	"fmt"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
)

// ErrNotStreamable marks statements that cannot run through a RowStream:
// only SELECT produces a row stream.
var ErrNotStreamable = errors.New("sqlfront: only SELECT can stream")

// errNoRanges fails a stream's page on an engine whose transactions cannot
// resume a scan by key (engineapi.RangeReader): every engine served here can.
var errNoRanges = errors.New("sqlfront: engine cannot resume a scan by key")

// RowStream is a SELECT against one pinned MVCC snapshot, handed out in
// bounded pages (the server's cursors). It holds its read transaction and a
// resume key: each NextPage runs the select core on the caller's goroutine
// from just past the last index entry the previous page visited, seeing
// what one scan would, LIMIT and residual filter included. The transaction
// ends with the stream (committed, or aborted on error); the next open in
// the same RowStream begins in its handle (engineapi.Rebeginner). Not safe
// for concurrent use; an undrained, unclosed one pins its snapshot and slot.
type RowStream struct {
	// Columns is the projected column list (nil for SELECT *), known at
	// open so every page can carry it.
	Columns []string

	tx       engineapi.Txn // open, or once finished the handle the next open reuses
	run      selectRun     // holds the key range left
	args     []core.Value  // the stream's own copies: every page reads them
	finished bool
	err      error
}

// OpenStream opens a streaming SELECT in rs (zero or finished) on worker, a
// slot the caller holds for the stream's life; plan errors surface here.
// sql and args may be borrowed for the call: the plan cache copies a text it
// keeps, and the stream the arguments. Refused inside an explicit
// transaction, whose writes the stream's snapshot would not see.
func (s *Session) OpenStream(rs *RowStream, worker int, sql string, args ...core.Value) error {
	if s.InTxn() {
		return errors.New("sqlfront: cannot stream inside an explicit transaction")
	}
	rs.Close()
	c, _, err := s.f.prepare(sql)
	switch {
	case err != nil:
		return err
	case c.sel == nil:
		return ErrNotStreamable
	case c.nParams != len(args):
		return fmt.Errorf("%w: statement has %d, got %d", ErrParamCount, c.nParams, len(args))
	}
	p := c.sel
	tx, err := engineapi.BeginReusing(p.ti.db, worker, rs.tx)
	if err != nil {
		return err
	}
	rs.tx, rs.Columns, rs.finished, rs.err = tx, p.cols, false, nil
	rs.args = rs.args[:0]
	for _, a := range args {
		rs.args = append(rs.args, a.Clone())
	}
	rs.run.start(p, rs.args)
	return nil
}

// NextPage appends the next page to sink: at most maxRows rows, and none
// once sink.Data has reached maxBytes (<= 0: no byte bound; sink's prior
// content counts). done=true means the stream is finished with status err;
// rows appended alongside it are the last, and none are valid if err != nil.
func (rs *RowStream) NextPage(sink *RowBuf, maxRows, maxBytes int) (done bool, err error) {
	if rs.finished {
		return true, rs.err
	}
	r := &rs.run
	r.sink, r.maxRows, r.maxBytes, r.paused = sink, maxRows, maxBytes, false
	err = r.run(rs.tx)
	r.sink = nil
	if err == nil && r.paused {
		return false, nil
	}
	return true, rs.finish(err)
}

// finish ends the transaction (aborted after err) and latches the status.
func (rs *RowStream) finish(err error) error {
	if err != nil {
		rs.tx.Abort()
	} else {
		err = rs.tx.Commit()
	}
	clear(rs.args)
	clear(rs.run.key)
	rs.run.args, rs.finished, rs.err = nil, true, err
	return err
}

// Close ends the stream early and returns its terminal status; closing a
// finished stream returns its status unchanged.
func (rs *RowStream) Close() error {
	if rs.finished || rs.tx == nil {
		return rs.err
	}
	return rs.finish(nil)
}
