package sqlfront

import (
	"errors"
	"fmt"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
)

// ErrNotStreamable marks statements that cannot run through ExecStream:
// only SELECT produces a row stream.
var ErrNotStreamable = errors.New("sqlfront: only SELECT can stream")

// RowStream is a resumable scan: a SELECT executing against one pinned
// MVCC snapshot, handing rows out in demand-driven, bounded pages instead
// of materializing the full result (the server's cursor protocol sits
// directly on top of it). The scan runs in a producer goroutine parked
// inside the engine's scan callback; each NextPage call lends the producer
// a RowBuf, the producer splices rows into it until the page's row or byte
// bound is reached, and parks again -- one hand-off per page, nothing
// buffered beyond it. The producer owns the stream's dedicated read
// transaction end to end -- it opens under the session's worker slot in
// ExecStream and is finished (committed on clean exhaustion or early Close,
// aborted on error; for a read-only snapshot the two are equivalent) only
// by the producer itself, which keeps the engine transaction
// single-goroutine.
//
// A RowStream is not safe for concurrent use, matching Session. Callers
// must either drain it to exhaustion or Close it; an abandoned stream pins
// its snapshot and its producer goroutine forever.
type RowStream struct {
	// Columns is the projected column list (nil for SELECT *), known at
	// open so every page can carry it.
	Columns []string

	req  chan pageReq  // consumer -> producer: fill this page
	more chan bool     // producer -> consumer: page handed back; false = scan over
	stop chan struct{} // closed by Close
	done chan error    // buffered 1: the producer's terminal status

	finished bool
	err      error
}

// pageReq is one NextPage call: the sink to fill and its bounds.
type pageReq struct {
	sink     *RowBuf
	maxRows  int
	maxBytes int // <= 0: unbounded
}

// ExecStream opens a streaming SELECT: the plan is resolved eagerly through
// the plan cache (errors surface here, never mid-stream), a dedicated read
// transaction pins the MVCC snapshot, and the returned stream yields rows
// from that snapshot regardless of concurrent writers. Streaming inside an
// explicit transaction is refused: the stream's snapshot would not see the
// transaction's own writes, which is a silent-surprise semantic.
func (s *Session) ExecStream(sql string, args ...core.Value) (*RowStream, error) {
	if s.InTxn() {
		return nil, errors.New("sqlfront: cannot stream inside an explicit transaction")
	}
	c, _, err := s.f.prepare(sql)
	if err != nil {
		return nil, err
	}
	if c.sel == nil {
		return nil, ErrNotStreamable
	}
	if c.nParams != len(args) {
		return nil, fmt.Errorf("%w: statement has %d, got %d", ErrParamCount, c.nParams, len(args))
	}
	tx, err := c.sel.ti.db.Begin(s.worker)
	if err != nil {
		return nil, err
	}
	rs := &RowStream{
		Columns: c.sel.cols,
		req:     make(chan pageReq),
		more:    make(chan bool),
		stop:    make(chan struct{}),
		done:    make(chan error, 1),
	}
	go rs.produce(s, tx, &selectRun{p: c.sel, args: args})
	return rs, nil
}

// produce is the producer goroutine: it waits for the first page request,
// runs the select core with a page hand-off after every row, finishes the
// transaction and reports the terminal status.
func (rs *RowStream) produce(s *Session, tx engineapi.Txn, r *selectRun) {
	var rq pageReq
	// next parks until the consumer asks for a page (true) or closes.
	next := func() bool {
		select {
		case rq = <-rs.req:
			r.sink = rq.sink
			return true
		case <-rs.stop:
			return false
		}
	}
	r.emitted = func() bool {
		if r.sink.N < rq.maxRows && (rq.maxBytes <= 0 || len(r.sink.Data) < rq.maxBytes) {
			return true
		}
		rs.more <- true
		return next()
	}
	var terr error
	serving := next()
	if serving {
		terr = r.run(tx)
		// A scan that unwound because Close arrived is not serving a page.
		select {
		case <-rs.stop:
			serving = false
		default:
		}
	}
	if terr != nil {
		tx.Abort()
	} else if terr = tx.Commit(); terr == nil {
		s.noteCSN(tx)
	}
	rs.done <- terr
	if serving {
		rs.more <- false
	}
}

// NextPage appends the next page to sink: at most maxRows rows, and no more
// rows once sink.Data has reached maxBytes (<= 0: no byte bound; sink's
// prior content counts towards both). done=true means the stream is
// finished and err carries the terminal status (nil on clean exhaustion);
// the rows appended alongside done=true are the last ones, and none are
// valid if err != nil.
func (rs *RowStream) NextPage(sink *RowBuf, maxRows, maxBytes int) (done bool, err error) {
	if rs.finished {
		return true, rs.err
	}
	rs.req <- pageReq{sink: sink, maxRows: maxRows, maxBytes: maxBytes}
	if <-rs.more {
		return false, nil
	}
	rs.finished = true
	rs.err = <-rs.done
	return true, rs.err
}

// Next collects the next bounded page of at most max rows (max <= 0 is
// treated as 1). done=true means the stream is exhausted -- the returned
// page (possibly empty) is the last one and err carries the terminal
// status.
func (rs *RowStream) Next(max int) (page *Result, done bool, err error) {
	if max <= 0 {
		max = 1
	}
	var buf RowBuf
	page = &Result{Columns: rs.Columns}
	if done, err = rs.NextPage(&buf, max, 0); err != nil {
		return page, true, err
	}
	page.Rows, _, err = core.DecodeRows(buf.Data, buf.N)
	return page, done, err
}

// Close abandons the stream early: the producer unwinds out of the scan,
// the pinned transaction is finished, and the terminal status is returned.
// Idempotent; a stream already drained to exhaustion returns its terminal
// error unchanged.
func (rs *RowStream) Close() error {
	if rs.finished {
		return rs.err
	}
	close(rs.stop)
	rs.finished = true
	rs.err = <-rs.done
	return rs.err
}
