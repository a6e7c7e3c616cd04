// The request lifecycle: every admitted request becomes one request value,
// goes to its opcode's handler, and is answered exactly once -- from the
// handler (ok / fail / corrupt), or, for the opcodes whose answer waits on a
// log record, from answerAtDurability.
package server

import (
	"fmt"
	"strings"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/sqlfront"
	"hiengine/internal/wire"
)

// request is one admitted request. It is passed by value: it lives on the
// read loop's stack, or -- for a deferred answer -- in a commit's answer
// record or a durability callback's closure, so a request costs no
// allocation of its own.
type request struct {
	c     *conn
	id    uint64
	op    wire.Op
	start time.Time
}

// handler executes one request and reports whether the connection may go on
// serving. payload is the frame reader's buffer: valid until the handler
// returns.
type handler func(c *conn, rq request, payload []byte) bool

// handlers is the dispatch table, indexed by opcode.
var handlers = [wire.MaxOp + 1]handler{
	wire.OpPing:       (*conn).ping,
	wire.OpExec:       (*conn).exec,
	wire.OpBegin:      (*conn).begin,
	wire.OpCommit:     (*conn).commitTxn,
	wire.OpAbort:      (*conn).abort,
	wire.OpStats:      (*conn).stats,
	wire.OpPrepare:    (*conn).prepare,
	wire.OpExecStmt:   (*conn).execPrepared,
	wire.OpCloseStmt:  (*conn).closeStmt,
	wire.OpExecAt:     (*conn).execAt,
	wire.OpReplHello:  (*conn).replHello,
	wire.OpReplList:   (*conn).replList,
	wire.OpReplFetch:  (*conn).replFetch,
	wire.OpShardMap:   (*conn).shardMap,
	wire.OpTxnPrepare: (*conn).txnPrepare,
	wire.OpTxnDecide:  (*conn).txnDecide,
	wire.OpTxnStatus:  (*conn).txnStatus,
	wire.OpTxnRecover: (*conn).txnRecover,
	wire.OpTxnForget:  (*conn).txnForget,
	wire.OpScanOpen:   (*conn).scanOpen,
	wire.OpScanNext:   (*conn).scanNext,
	wire.OpScanClose:  (*conn).scanClose,
	wire.OpExecBatch:  (*conn).execBatch,
}

// release returns what admission took -- the in-flight token and the reqWG
// entry -- and records the request's latency. Exactly once per request, after
// its response is written.
func (rq request) release() {
	s := rq.c.s
	<-s.inflight
	s.mInflight.Add(-1)
	s.reqWG.Done()
	ns := time.Since(rq.start).Nanoseconds()
	s.mLatency.Record(ns)
	s.mOpLat[rq.op].Record(ns)
}

// done answers the request from its handler: err classified onto its wire
// code, or CodeOK with body. A response after which no transaction remains
// open terminates the traced unit, so the trace completes with it.
func (rq request) done(err error, body []byte) bool {
	tr := rq.c.takeTerminalTrace()
	if err != nil {
		rq.c.respondErr(rq.id, tr, err)
	} else {
		rq.c.respond(rq.id, tr, wire.CodeOK, "", body)
	}
	rq.release()
	return true
}

func (rq request) ok(body []byte) bool { return rq.done(nil, body) }
func (rq request) fail(err error) bool { return rq.done(err, nil) }

// corrupt answers an undecodable payload. That is a protocol violation:
// count it, answer, then fail the connection.
func (rq request) corrupt(err error) bool {
	rq.c.s.mProtoErrs.Inc()
	rq.fail(err)
	return false
}

// okBuilt answers CodeOK with a body built into a pooled buffer.
func (rq request) okBuilt(build func(buf []byte) []byte) bool {
	bp := wire.GetBuf()
	*bp = build((*bp)[:0])
	rq.ok(*bp)
	wire.PutBuf(bp)
	return true
}

// --- answered at durability ------------------------------------------------

// deferred is a request whose answer waits for a log record to be durable
// (commit, an atomic batch, and 2PC's prepare, decide and forget): the
// request and the trace it terminates, detached from the read loop, which
// moves on to the connection's next frame -- the out-of-order case of the
// protocol. A commit's answer record holds it (commitAnswer); the other
// opcodes' durability callbacks capture it by value.
type deferred struct {
	rq request
	tr *obs.Trace
	t0 time.Time
	// ackSite, when set, is the chaos site between "durable" and
	// "acknowledged": an injected fault there kills the connection instead
	// of answering.
	ackSite string
}

// deferAnswer detaches rq and the connection's trace from the read loop. It
// must run before the engine call that takes the callback: on the async
// path the engine's pipeline carries the trace to the WAL I/O goroutine and
// the callback, which runs there, completes it, so the read loop may not
// touch it afterwards. Once the engine call is made the handler calls
// detached.
func (c *conn) deferAnswer(rq request, ackSite string) deferred {
	d := deferred{rq: rq, tr: c.tr, t0: time.Now(), ackSite: ackSite}
	c.tr = nil
	return d
}

// detached finishes the hand-over once the engine has the callback: the
// session forgets the trace (its transaction, if any, has been detached by
// the engine call and keeps its own reference) and the worker-slot lease
// returns.
func (c *conn) detached() {
	c.sess.SetTrace(nil)
	c.releaseSlot()
}

// answerAtDurability writes a deferred request's one response; every
// durability callback ends here, as does the handler itself when the engine
// finishes (or refuses) the work without a callback. err answers the
// classified error; otherwise body, when non-nil, builds the success body
// into a pooled buffer.
func (d deferred) answerAtDurability(err error, body func(buf []byte) []byte) {
	c := d.rq.c
	c.s.mCommitDur.Record(time.Since(d.t0).Nanoseconds())
	switch {
	case err != nil:
		c.respondErr(d.rq.id, d.tr, err)
	case d.ackSite != "" && c.ackLost(d.ackSite, d.tr):
	case body == nil:
		c.respond(d.rq.id, d.tr, wire.CodeOK, "", nil)
	default:
		bp := wire.GetBuf()
		*bp = body((*bp)[:0])
		c.respond(d.rq.id, d.tr, wire.CodeOK, "", *bp)
		wire.PutBuf(bp)
	}
	d.rq.release()
}

// ackLost checks an ack-loss chaos site: on an injected error the connection
// dies without a response -- the participant's durable state outlives the
// coordinator's knowledge of it, which is the in-doubt window the recovery
// protocol exists for. Reports whether the ack was dropped.
func (c *conn) ackLost(site string, tr *obs.Trace) bool {
	if err := c.s.cfg.Chaos.Check(site); err == nil {
		return false
	}
	c.writeMu.Lock()
	c.dead = true
	c.nc.Close()
	c.writeMu.Unlock()
	tr.Discard()
	return true
}

// commit ends the session transaction through the pipelined path, for every
// way a commit can be asked for: OpCommit, COMMIT as text or as a prepared
// statement, and an atomic batch (affected non-nil). The body is what the
// client decodes any commit as -- an empty Result, or the batch's affected
// vector -- suffixed with the session's post-commit CSN, the
// read-your-writes token the client presents to replicas.
func (c *conn) commit(rq request, affected []int) bool {
	a := c.takeAnswer()
	a.d, a.affected = c.deferAnswer(rq, ""), affected
	async, err := c.sess.CommitAsync(a.durable)
	c.detached()
	if !async {
		a.onDurable(err)
	}
	return true
}

// commitAnswer is a commit's deferred answer: the request and, for an atomic
// batch, its affected vector. durable is the record's onDurable, bound once
// when the record is made, so a commit hands the session its callback
// without allocating one. Records come from the connection's free list and
// go back to it once answered; a connection may have several commits in
// flight, each answered on the log's I/O goroutine.
type commitAnswer struct {
	c        *conn
	d        deferred
	affected []int
	durable  func(error)
}

// maxFreeAnswers bounds the commit records a connection keeps.
const maxFreeAnswers = 8

// takeAnswer returns a commit record, from the free list when it has one.
func (c *conn) takeAnswer() *commitAnswer {
	c.answerMu.Lock()
	var a *commitAnswer
	if n := len(c.answerFree); n > 0 {
		a, c.answerFree[n-1] = c.answerFree[n-1], nil
		c.answerFree = c.answerFree[:n-1]
	}
	c.answerMu.Unlock()
	if a == nil {
		a = &commitAnswer{c: c}
		a.durable = a.onDurable
	}
	return a
}

// onDurable answers the commit, the body an empty Result or the batch's
// affected vector, suffixed with the session's post-commit CSN.
func (a *commitAnswer) onDurable(err error) {
	c, d, affected := a.c, a.d, a.affected
	a.d, a.affected = deferred{}, nil
	c.answerMu.Lock()
	if len(c.answerFree) < maxFreeAnswers {
		c.answerFree = append(c.answerFree, a)
	}
	c.answerMu.Unlock()
	d.answerAtDurability(err, func(buf []byte) []byte {
		if affected != nil {
			return wire.AppendBatchResult(buf, affected, c.sess.LastCSN())
		}
		return wire.AppendEncodedResultCSN(buf, 0, nil, 0, nil, c.sess.LastCSN())
	})
}

func (c *conn) commitTxn(rq request, _ []byte) bool { return c.commit(rq, nil) }

// txnPrepare runs phase one of 2PC on the session's open transaction. The
// vote byte distinguishes a prepared write set (the coordinator owes a
// decision) from a read-only local commit, and an error response is a "no"
// vote (the transaction is already aborted). The session detaches from the
// transaction either way -- the prepared participant belongs to the engine's
// decision path.
func (c *conn) txnPrepare(rq request, p []byte) bool {
	gtid, err := wire.DecodeGTID(p)
	if err != nil {
		return rq.corrupt(err)
	}
	d := c.deferAnswer(rq, Site2PCAck)
	err = c.sess.PrepareTxn(gtid, func(readOnly bool, perr error) {
		d.answerAtDurability(perr, func(buf []byte) []byte {
			if readOnly {
				return append(buf, wire.PreparedReadOnly)
			}
			return append(buf, wire.PreparedWrites)
		})
	})
	c.detached()
	if err != nil {
		// Immediate "no" vote; PrepareTxn never invokes the callback after
		// a non-nil return.
		d.answerAtDurability(err, nil)
	}
	return true
}

// twoPC returns the coordinator-facing 2PC hooks, or answers rq when the
// server has none.
func (c *conn) twoPC(rq request) *TwoPCConfig {
	if c.s.cfg.TwoPC == nil {
		rq.fail(fmt.Errorf("%w: two-phase commit not enabled", wire.ErrBadStatement))
	}
	return c.s.cfg.TwoPC
}

func (c *conn) txnDecide(rq request, p []byte) bool {
	gtid, commit, err := wire.DecodeTxnDecide(p)
	if err != nil {
		return rq.corrupt(err)
	}
	tp := c.twoPC(rq)
	if tp == nil {
		return true
	}
	d := c.deferAnswer(rq, Site2PCAck)
	err = tp.Resolve(gtid, commit, func(csn uint64, derr error) {
		d.answerAtDurability(derr, func(buf []byte) []byte {
			return wire.AppendTxnCSN(buf, csn)
		})
	})
	c.detached()
	if err != nil {
		d.answerAtDurability(err, nil)
	}
	return true
}

func (c *conn) txnForget(rq request, p []byte) bool {
	gtid, err := wire.DecodeGTID(p)
	if err != nil {
		return rq.corrupt(err)
	}
	tp := c.twoPC(rq)
	if tp == nil {
		return true
	}
	d := c.deferAnswer(rq, Site2PCAck)
	err = tp.Forget(gtid, func(ferr error) { d.answerAtDurability(ferr, nil) })
	c.detached()
	if err != nil {
		d.answerAtDurability(err, nil)
	}
	return true
}

func (c *conn) txnStatus(rq request, p []byte) bool {
	gtid, err := wire.DecodeGTID(p)
	if err != nil {
		return rq.corrupt(err)
	}
	tp := c.twoPC(rq)
	if tp == nil {
		return true
	}
	return rq.ok(wire.EncodeTxnState(tp.Status(gtid)))
}

func (c *conn) txnRecover(rq request, _ []byte) bool {
	tp := c.twoPC(rq)
	if tp == nil {
		return true
	}
	return rq.ok(wire.EncodeGTIDList(tp.InDoubt()))
}

// --- statements ------------------------------------------------------------

// compile resolves SQL text to a compiled statement through the frontend
// plan cache, so unprepared traffic too stops parsing after first sight.
// Parse/plan/arity failures are bad requests, distinct from engine-side
// execution failures.
func (c *conn) compile(sql string) (*sqlfront.Stmt, error) {
	st, err := c.sess.Prepare(sql)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrBadStatement, err)
	}
	return st, nil
}

// run executes one compiled statement under the connection's worker slot,
// its rows going to sink in wire form.
func (c *conn) run(st *sqlfront.Stmt, args []core.Value, sink *sqlfront.RowBuf) (*sqlfront.Result, error) {
	if err := c.acquireSlot(); err != nil {
		return nil, err
	}
	res, err := st.ExecEncoded(sink, args...)
	c.releaseSlot()
	return res, err
}

// execStmt is the statement core of OpExec, OpExecAt and OpExecStmt, entered
// once the request has been resolved to a compiled statement. COMMIT,
// however expressed, takes the pipelined path so every commit batches into
// the group append; anything else runs now and answers with its result,
// suffixed with the session's read-your-writes token. Rows arrive from
// sqlfront already in wire form (spliced out of storage into the
// connection's row sink) and are framed exactly as a cursor page's are. The
// statement's scratch -- args, the sink, the session's Result -- is all
// consumed before this returns.
func (c *conn) execStmt(rq request, st *sqlfront.Stmt, args []core.Value, flags uint64) bool {
	switch {
	case st.TxnVerb() != "" && flags&wire.FlagBegin != 0:
		return c.failStmt(rq, flags, fmt.Errorf("%w: begin flag on a transaction verb", wire.ErrBadStatement))
	case st.TxnVerb() == "COMMIT":
		return c.commit(rq, nil)
	}
	rowsBP := wire.GetBuf()
	c.rows = sqlfront.RowBuf{Data: (*rowsBP)[:0]}
	defer c.putRows(rowsBP)
	res, err := c.run(st, args, &c.rows)
	clear(args) // consumed: a large string among them is not kept past the statement
	rows := &c.rows
	if err == nil && len(rows.Data) > maxResultRows {
		// respond would replace this answer by an error too, but only once it
		// is past failStmt: a transaction the begin flag opened would stay.
		err = fmt.Errorf("%w: result too large: %d bytes of rows exceed frame limit %d",
			wire.ErrBadStatement, len(rows.Data), wire.MaxFrame)
	}
	if err != nil {
		return c.failStmt(rq, flags, err)
	}
	return rq.okBuilt(func(buf []byte) []byte {
		return wire.AppendEncodedResultCSN(buf, res.Affected, res.Columns, rows.N, rows.Data, c.sess.LastCSN())
	})
}

// putRows hands the row sink's buffer back to the pool once the statement's
// response is written, and drops the connection's hold on it.
func (c *conn) putRows(bp *[]byte) {
	*bp = c.rows.Data
	c.rows = sqlfront.RowBuf{}
	wire.PutBuf(bp)
}

// keepArgs makes a statement's decoded argument row the one the next
// statement decodes into, unless it is wide enough that keeping it would pin
// memory.
func (c *conn) keepArgs(args core.Row) {
	if cap(args) <= maxArgScratch {
		c.args = args
	}
}

// maxArgScratch bounds the argument row a connection keeps between
// statements, in values.
const maxArgScratch = 1024

// maxResultRows bounds the encoded rows of a one-shot result: the largest
// payload less room for the envelope, the column names and a trace block.
const maxResultRows = wire.MaxPayload - 64<<10

// applyFlags acts on a statement's flags trailer before the statement is
// resolved. wire.FlagBegin is OpBegin riding the statement's frame: the slot
// is leased and the session transaction opened first, exactly as OpBegin
// would, so an admission refusal costs nothing else. Once it returned nil the
// statement's failures go through failStmt.
func (c *conn) applyFlags(flags uint64) error {
	switch {
	case flags&^wire.FlagBegin != 0: // a future bit must not be silently ignored
		return fmt.Errorf("%w: unknown statement flags %#x", wire.ErrBadStatement, flags)
	case flags&wire.FlagBegin == 0:
		return nil
	case c.sess.InTxn():
		return fmt.Errorf("%w: begin flag inside a transaction", wire.ErrBadStatement)
	}
	return c.openTxn()
}

// failStmt answers a statement that failed after applyFlags: the transaction
// its begin flag opened (unless a conflict or duplicate already aborted it)
// is rolled back first, so a begin-carrying statement never executes outside
// a transaction and its error never leaves one behind -- the client carries
// the flag again on its next statement.
func (c *conn) failStmt(rq request, flags uint64, err error) bool {
	if flags&wire.FlagBegin != 0 && c.sess.InTxn() {
		c.sess.Rollback()
		c.releaseSlot()
	}
	return rq.fail(err)
}

func (c *conn) exec(rq request, p []byte) bool {
	sql, args, flags, err := wire.DecodeExecFlags(p, c.args)
	if err != nil {
		return rq.corrupt(err)
	}
	c.keepArgs(args)
	if err := c.applyFlags(flags); err != nil {
		return rq.fail(err)
	}
	st, err := c.compile(sql)
	if err != nil {
		return c.failStmt(rq, flags, err)
	}
	return c.execStmt(rq, st, args, flags)
}

// execAt is OpExec behind the read-your-writes token: on a replica, wait
// (bounded) until the applied watermark covers the client's last commit; a
// primary trivially satisfies any token it issued. A timeout is CodeBusy:
// the client redirects the read to the primary rather than see a stale
// snapshot.
func (c *conn) execAt(rq request, p []byte) bool {
	minCSN, exec, err := wire.DecodeExecAt(p)
	if err != nil {
		return rq.corrupt(err)
	}
	if rc := c.s.replicaCfg(); rc != nil && minCSN > 0 && !rc.WaitCSN(minCSN, tokenWait) {
		return rq.fail(fmt.Errorf("replica behind read-your-writes token %d: %w", minCSN, ErrServerBusy))
	}
	return c.exec(rq, exec)
}

func (c *conn) execPrepared(rq request, p []byte) bool {
	id, args, flags, err := wire.DecodeExecStmtFlags(p, c.args)
	if err != nil {
		return rq.corrupt(err)
	}
	c.keepArgs(args)
	if err := c.applyFlags(flags); err != nil {
		return rq.fail(err)
	}
	st := c.stmts[id]
	if st == nil {
		return c.failStmt(rq, flags, fmt.Errorf("%w: unknown statement id %d", wire.ErrBadStatement, id))
	}
	return c.execStmt(rq, st, args, flags)
}

// prepare only touches the catalog (parse/plan/compile through the frontend
// plan cache) -- no engine transaction, so no worker slot.
func (c *conn) prepare(rq request, p []byte) bool {
	sql, err := wire.DecodePrepare(p)
	if err != nil {
		return rq.corrupt(err)
	}
	if len(c.stmts) >= c.s.cfg.maxStmts {
		return rq.fail(fmt.Errorf("%w: statement table full (%d open)", wire.ErrBadStatement, len(c.stmts)))
	}
	st, err := c.compile(sql)
	if err != nil {
		return rq.fail(err)
	}
	if c.stmts == nil {
		c.stmts = make(map[uint64]*sqlfront.Stmt)
	}
	c.stmtSeq++
	c.stmts[c.stmtSeq] = st
	c.s.mStmtsOpen.Add(1)
	return rq.ok(wire.EncodePrepareResult(c.stmtSeq, st.NumParams()))
}

// closeStmt is idempotent: closing an unknown or already-closed id succeeds,
// so pooled clients can close defensively on connection reuse.
func (c *conn) closeStmt(rq request, p []byte) bool {
	id, err := wire.DecodeHandle(p)
	if err != nil {
		return rq.corrupt(err)
	}
	if _, ok := c.stmts[id]; ok {
		delete(c.stmts, id)
		c.s.mStmtsOpen.Add(-1)
	}
	return rq.ok(nil)
}

// execBatch handles OpExecBatch: N statements in one frame, one response
// with a per-statement affected vector. Outside an explicit transaction the
// batch is atomic -- it opens its own transaction and commits it through
// commit, answered at durability. Inside one, the batch is simply N
// statements of the open transaction and answers immediately (durability
// comes with the eventual COMMIT). Any statement error aborts the rest of
// the batch; an auto-batch is rolled back whole. Transaction verbs inside a
// batch are refused -- they would break the one-response contract.
func (c *conn) execBatch(rq request, p []byte) bool {
	stmts, err := wire.DecodeExecBatch(p)
	if err != nil {
		return rq.corrupt(err)
	}
	if err := c.acquireSlot(); err != nil {
		return rq.fail(err)
	}
	auto := !c.sess.InTxn()
	if auto {
		if err := c.sess.Begin(); err != nil {
			c.releaseSlot()
			return rq.fail(err)
		}
	}
	affected := make([]int, len(stmts))
	var rows sqlfront.RowBuf // a SELECT's rows have nowhere to go in a batch
	for i, bs := range stmts {
		st, err := c.compile(bs.SQL)
		if err == nil && st.TxnVerb() != "" {
			err = fmt.Errorf("%w: transaction control not allowed in a batch", wire.ErrBadStatement)
		}
		if err == nil {
			var res *sqlfront.Result
			rows = sqlfront.RowBuf{Data: rows.Data[:0]}
			if res, err = c.run(st, bs.Args, &rows); err == nil {
				affected[i] = res.Affected
				continue
			}
		}
		if auto && c.sess.InTxn() {
			c.sess.Rollback()
		}
		c.releaseSlot()
		return rq.fail(fmt.Errorf("batch statement %d: %w", i, err))
	}
	if auto {
		return c.commit(rq, affected)
	}
	return rq.okBuilt(func(buf []byte) []byte {
		return wire.AppendBatchResult(buf, affected, c.sess.LastCSN())
	})
}

// --- session verbs, stats --------------------------------------------------

func (c *conn) ping(rq request, _ []byte) bool { return rq.ok(nil) }

func (c *conn) begin(rq request, _ []byte) bool { return rq.done(c.openTxn(), nil) }

// openTxn leases the worker slot and opens the session transaction: OpBegin,
// and a statement carrying wire.FlagBegin.
func (c *conn) openTxn() error {
	if err := c.acquireSlot(); err != nil {
		return err
	}
	err := c.sess.Begin()
	c.releaseSlot() // only on error: Begin leaves InTxn true on success
	return err
}

func (c *conn) abort(rq request, _ []byte) bool {
	err := c.sess.Rollback()
	c.releaseSlot()
	return rq.done(err, nil)
}

func (c *conn) stats(rq request, _ []byte) bool {
	var b strings.Builder
	if c.s.cfg.Stats != nil {
		b.WriteString(c.s.cfg.Stats())
	}
	pcs := c.s.cfg.Frontend.PlanCacheStats()
	fmt.Fprintf(&b, "plancache size=%d hits=%d misses=%d evictions=%d invalidations=%d\n",
		pcs.Size, pcs.Hits, pcs.Misses, pcs.Evictions, pcs.Invalidations)
	if c.s.cfg.Obs != nil {
		b.WriteString(c.s.cfg.Obs.Snapshot().String())
	}
	return rq.ok([]byte(b.String()))
}

// --- log shipping, shard map -----------------------------------------------

// replSource returns the log-shipping source, or answers rq when this node
// serves none.
func (c *conn) replSource(rq request) ReplicationSource {
	src := c.s.replSource()
	if src == nil {
		rq.fail(fmt.Errorf("%w: replication source not enabled", wire.ErrBadStatement))
	}
	return src
}

// observeEpoch folds a primary epoch a remote node presented into this
// node's fencing state and reports whether the node is now fenced.
func (s *Server) observeEpoch(remote uint64) bool {
	return s.cfg.ObserveEpoch != nil && s.cfg.ObserveEpoch(remote)
}

// replHello carries the caller's observed epoch; folding it in is how a
// promoted node's fencer demotes this one. A fenced node still answers hello
// (with its stale epoch) -- refusing would hide the very state the caller is
// probing -- but it must not serve its log (replFetch).
func (c *conn) replHello(rq request, p []byte) bool {
	src := c.replSource(rq)
	if src == nil {
		return true
	}
	remote, err := wire.DecodeReplHelloReq(p)
	if err != nil {
		return rq.corrupt(err)
	}
	c.s.observeEpoch(remote)
	manifest, csn := src.ReplHello()
	return rq.ok(wire.EncodeReplHello(manifest, csn, c.s.epoch()))
}

func (c *conn) replList(rq request, _ []byte) bool {
	src := c.replSource(rq)
	if src == nil {
		return true
	}
	return rq.ok(wire.EncodeReplList(src.ReplList()))
}

func (c *conn) replFetch(rq request, p []byte) bool {
	src := c.replSource(rq)
	if src == nil {
		return true
	}
	id, off, maxBytes, remote, err := wire.DecodeReplFetch(p)
	if err != nil {
		return rq.corrupt(err)
	}
	// A node fenced by a newer lineage must not serve its log: a follower
	// replaying it would diverge from the promoted history. The typed
	// refusal is the follower's cue to rediscover the primary.
	if c.s.observeEpoch(remote) {
		return rq.fail(fmt.Errorf("fenced at epoch %d: %w", c.s.epoch(), core.ErrStaleEpoch))
	}
	st, data, err := src.ReplFetch(id, off, maxBytes)
	if err != nil {
		return rq.fail(err)
	}
	return rq.ok(wire.EncodeReplChunk(st, data))
}

func (c *conn) shardMap(rq request, p []byte) bool {
	expect, id, err := wire.DecodeShardMapReq(p)
	if err != nil {
		return rq.corrupt(err)
	}
	var m *wire.ShardMap
	if c.s.cfg.ShardInfo != nil {
		m = c.s.cfg.ShardInfo()
	}
	if m == nil {
		return rq.fail(fmt.Errorf("%w: sharding not enabled", wire.ErrBadStatement))
	}
	// The router's stale-map detector: a request asserting the wrong shard
	// id gets the typed refusal instead of silently serving foreign keys.
	if expect && id != m.SelfID {
		return rq.fail(fmt.Errorf("node serves shard %d, not %d: %w", m.SelfID, id, wire.ErrWrongShard))
	}
	return rq.ok(wire.EncodeShardMap(m))
}
