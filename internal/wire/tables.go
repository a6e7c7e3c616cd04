package wire

import (
	"errors"
	"fmt"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/sqlfront"
)

// Op is a frame opcode.
type Op uint8

// Request opcodes, and the single response opcode. A connection is one
// server-side session: Begin/Commit/Abort act on the session transaction,
// Exec runs one SQL statement in it (or autocommits outside one).
// Prepare/ExecStmt/CloseStmt are the prepared-statement path: parse/plan
// is paid once at Prepare and every ExecStmt binds an argument row into
// the server-side compiled plan (the wire form of Section 3.3's full-stack
// code generation). Statement ids are scoped to the connection's session.
// Opcode numbers are wire-stable: never renumber (which is why the
// prepared opcodes sit above OpResponse).
const (
	OpPing      Op = 1  // empty payload; response: empty body
	OpExec      Op = 2  // sql string, args row; response: result body
	OpBegin     Op = 3  // empty; opens the session transaction
	OpCommit    Op = 4  // empty; response sent when the commit is durable
	OpAbort     Op = 5  // empty; rolls back the session transaction
	OpStats     Op = 6  // empty; response: stats snapshot text
	OpResponse  Op = 7  // server -> client only
	OpPrepare   Op = 8  // sql string; response: stmt id + param count
	OpExecStmt  Op = 9  // stmt id, args row; response: result body
	OpCloseStmt Op = 10 // stmt id; response: empty body
	// OpExecAt is OpExec with a read-your-writes token: the payload carries
	// the client's last-seen commit CSN ahead of the statement. A replica
	// waits (bounded) until its applied watermark reaches the token before
	// executing, or answers CodeBusy so the client redirects to the primary.
	OpExecAt Op = 11 // min csn, sql string, args row; response: result body
	// Log-shipping opcodes: a replica process follows a remote primary by
	// mirroring its PLogs. Hello identifies the primary (manifest + current
	// CSN), List enumerates its PLogs, Fetch reads a bounded chunk of one.
	OpReplHello Op = 12 // [epoch]; response: manifest id + current csn [+ epoch]
	OpReplList  Op = 13 // empty; response: plog stat list
	OpReplFetch Op = 14 // plog id, offset, max bytes [, epoch]; response: stat + data
	// Sharding opcodes. OpShardMap serves the node's shard map so clients
	// self-bootstrap topology from any member; the request may carry the
	// shard id the caller believes it is talking to, and a mismatch answers
	// CodeWrongShard. The 2PC opcodes drive the distributed-commit protocol
	// against a participant: Prepare votes on the session's open transaction
	// (answered at prepare-record durability, like commit), Decide delivers
	// the coordinator's commit/abort decision for a prepared gtid (answered
	// at decision-record durability), Status asks the txn's home participant
	// for its durable outcome, and Recover lists gtids prepared here but
	// still undecided (the in-doubt list a coordinator resolves on
	// reconnect).
	OpShardMap   Op = 15 // optional expected shard id; response: shard map
	OpTxnPrepare Op = 16 // gtid; response at durability: vote flag
	OpTxnDecide  Op = 17 // gtid + decision; response at durability: commit csn
	OpTxnStatus  Op = 18 // gtid; response: state byte + csn
	OpTxnRecover Op = 19 // empty; response: in-doubt gtid list
	// OpTxnForget prunes a decided gtid's 2PC bookkeeping on a participant
	// once the coordinator knows the decision is durably applied everywhere
	// (answered at forget-record durability). Best-effort: a lost forget
	// only retains metadata, never changes an outcome.
	OpTxnForget Op = 20 // gtid; response at durability: empty body
	// Streaming-scan opcodes. A SELECT whose result would overflow one frame
	// streams instead: ScanOpen parses and plans the statement, pins a
	// dedicated MVCC snapshot, and answers with the first bounded page plus a
	// connection-scoped cursor id; ScanNext pulls subsequent pages from the
	// same pinned snapshot; ScanClose releases the cursor early (idempotent,
	// like OpCloseStmt). Every page body carries a done flag -- the server
	// auto-closes an exhausted cursor, so a client only sends ScanClose when
	// it abandons a scan. A ScanNext against an unknown, expired or reaped
	// cursor answers CodeCursorGone.
	OpScanOpen  Op = 21 // fetch size, sql string, args row; response: cursor page
	OpScanNext  Op = 22 // cursor id, fetch size; response: cursor page
	OpScanClose Op = 23 // cursor id; response: empty body
	// OpExecBatch carries N statements in one frame and answers with one
	// response carrying a per-statement affected-row vector. Outside an
	// explicit transaction the batch executes atomically in its own
	// transaction and the response is sent when that commit is durable (the
	// same answered-at-durability group-commit path as OpCommit); inside one
	// it behaves like N pipelined statements of the open transaction. Any
	// statement error aborts the rest of the batch.
	OpExecBatch Op = 24 // n, then n x {sql string, args row}; response: affected vector + csn
)

// RetryClass says when a client may reissue a request whose response was a
// retryable code (retryable: conflict, busy). I/O errors and every other
// code are never retried, whatever the class.
type RetryClass uint8

const (
	// RetryNever: the request may have taken effect, or a caller above the
	// client owns the retry (2PC coordinator, log shipper, replica fallback).
	RetryNever RetryClass = iota
	// RetryAlways: the request executes nothing a replay could repeat
	// (opening a transaction, compiling a statement, opening a cursor).
	RetryAlways
	// RetryOutsideTxn: an autocommit statement is atomic, so a refused or
	// conflicted one left nothing behind; inside a transaction a conflict
	// has aborted the whole transaction and replaying one statement of it
	// would be wrong.
	RetryOutsideTxn
	// RetryBusyOnly: busy is an admission refusal, sent before the request
	// touched anything; any later error may have consumed state (cursor
	// rows), so nothing else is replayed.
	RetryBusyOnly
)

// Allows reports whether a request of this class that was answered with code
// may be sent again; inTxn is the client's view of the session transaction.
func (rc RetryClass) Allows(code Code, inTxn bool) bool {
	switch rc {
	case RetryAlways:
		return retryable(code)
	case RetryOutsideTxn:
		return retryable(code) && !inTxn
	case RetryBusyOnly:
		return code == CodeBusy
	}
	return false
}

// opTable is the opcode table: everything else that depends on which opcode
// a frame carries -- names, request-side validity, the server's per-opcode
// metrics and dispatch, the client's retry decision -- is derived from it,
// so a new opcode is one row here, one payload codec and one server handler.
var opTable = [...]struct {
	name    string
	request bool // a client may put it on the wire
	retry   RetryClass
}{
	OpPing:       {"ping", true, RetryNever},
	OpExec:       {"exec", true, RetryOutsideTxn},
	OpBegin:      {"begin", true, RetryAlways},
	OpCommit:     {"commit", true, RetryNever},
	OpAbort:      {"abort", true, RetryNever},
	OpStats:      {"stats", true, RetryNever},
	OpResponse:   {"response", false, RetryNever},
	OpPrepare:    {"prepare", true, RetryAlways},
	OpExecStmt:   {"exec_stmt", true, RetryOutsideTxn},
	OpCloseStmt:  {"close_stmt", true, RetryNever},
	OpExecAt:     {"exec_at", true, RetryNever},
	OpReplHello:  {"repl_hello", true, RetryNever},
	OpReplList:   {"repl_list", true, RetryNever},
	OpReplFetch:  {"repl_fetch", true, RetryNever},
	OpShardMap:   {"shard_map", true, RetryNever},
	OpTxnPrepare: {"txn_prepare", true, RetryNever},
	OpTxnDecide:  {"txn_decide", true, RetryNever},
	OpTxnStatus:  {"txn_status", true, RetryNever},
	OpTxnRecover: {"txn_recover", true, RetryNever},
	OpTxnForget:  {"txn_forget", true, RetryNever},
	OpScanOpen:   {"scan_open", true, RetryAlways},
	OpScanNext:   {"scan_next", true, RetryBusyOnly},
	OpScanClose:  {"scan_close", true, RetryNever},
	OpExecBatch:  {"exec_batch", true, RetryOutsideTxn},
}

// MaxOp is the highest assigned opcode (sizing per-opcode tables).
const MaxOp = Op(len(opTable) - 1)

// String names the opcode.
func (o Op) String() string {
	if o > MaxOp || opTable[o].name == "" {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opTable[o].name
}

// Retry is the opcode's client retry class.
func (o Op) Retry() RetryClass {
	if o > MaxOp {
		return RetryNever
	}
	return opTable[o].retry
}

// validRequest reports whether o is a client-issued opcode.
func validRequest(o Op) bool { return o <= MaxOp && opTable[o].request }

// RequestOps lists the client-issued opcodes in numeric order: what a server
// must handle and keeps per-opcode metrics for.
func RequestOps() []Op {
	var ops []Op
	for o := Op(0); o <= MaxOp; o++ {
		if validRequest(o) {
			ops = append(ops, o)
		}
	}
	return ops
}

// TraceFlag marks a traced frame. It rides the opcode byte's high bit (no
// assigned opcode comes near it) so untraced frames are byte-identical to
// the pre-trace protocol: untraced requests pay zero extra bytes. A traced
// frame's payload begins with a big-endian 64-bit trace id, which the frame
// readers strip into Frame.TraceID; on a traced response the remaining
// payload then carries a stage-timing block (AppendTraceBlock) ahead of the
// usual code/msg/body.
const TraceFlag Op = 0x80

// Code is a stable wire status code.
type Code uint16

// The status codes. Codes are wire-stable: never renumber.
const (
	CodeOK Code = 0
	// CodeConflict: retryable concurrency failure (write-write conflict,
	// OCC validation abort, lock conflict). The transaction was aborted.
	CodeConflict Code = 1
	// CodeDuplicate: unique-constraint violation. Not retryable.
	CodeDuplicate Code = 2
	// CodeNotFound: no visible row. Not retryable.
	CodeNotFound Code = 3
	// CodeBusy: admission control rejected the request (server at its
	// in-flight or connection bound). Retryable with backoff.
	CodeBusy Code = 4
	// CodeBadRequest: parse/plan/arity/transaction-state errors. The
	// statement can never succeed as written; not retryable.
	CodeBadRequest Code = 5
	// CodeClosed: the engine or server is closed/draining. Fatal: the
	// client must not retry this endpoint.
	CodeClosed Code = 6
	// CodeDurabilityLost: the engine fail-stopped after a durability
	// failure. Fatal; retrying into a fail-stopped engine is forbidden.
	CodeDurabilityLost Code = 7
	// CodeInternal: unclassified server-side failure. Not retryable.
	CodeInternal Code = 8
	// CodeReadOnly: the statement needs write access but the server is a
	// read-only replica. Not retryable here -- the client must redirect the
	// statement to the primary.
	CodeReadOnly Code = 9
	// CodeStaleEpoch: the request carried (or the serving node holds) a
	// primary epoch older than one it has observed. The losing side of a
	// failover returns this for writes and repl fetches; the fix is
	// rediscovery of the current primary, never a retry here.
	CodeStaleEpoch Code = 10
	// CodeInDoubt: the named distributed transaction is prepared here but
	// its commit/abort decision is not yet known. Not retryable in place --
	// the outcome belongs to the coordinator (or the recovery protocol
	// against the txn's home participant), which must be consulted.
	CodeInDoubt Code = 11
	// CodeWrongShard: the request named a shard id this node does not own
	// (a stale shard map, or a misrouted statement). Not retryable here --
	// the client must refresh its shard map and re-route.
	CodeWrongShard Code = 12
	// CodeCursorGone: an OpScanNext/OpScanClose named a cursor this
	// connection does not hold -- never opened, already exhausted, failed
	// mid-scan, or reaped with the idle connection. Not retryable and not
	// fatal: retrying cannot resurrect the snapshot (rows may already have
	// been consumed), so the client must reissue the scan from the top if it
	// still wants the data.
	CodeCursorGone Code = 13
)

// ErrServerBusy is the admission-control sentinel: the server refused the
// request rather than queue it unboundedly. Carried as CodeBusy.
var ErrServerBusy = errors.New("wire: server busy")

// ErrProtocol marks framing violations (torn, oversize, zero-length or
// unknown-opcode frames). The connection carrying it is dead.
var ErrProtocol = errors.New("wire: protocol violation")

// ErrWrongShard is the misrouting sentinel: the request named a shard this
// node does not own. Carried as CodeWrongShard; the fix is a shard-map
// refresh, never a retry in place.
var ErrWrongShard = errors.New("wire: wrong shard")

// ErrCursorGone is the expired-cursor sentinel: a scan continuation named a
// cursor the connection no longer holds. Carried as CodeCursorGone; the fix
// is reissuing the scan, never retrying the continuation.
var ErrCursorGone = errors.New("wire: cursor gone")

// ErrBadStatement tags request errors that originate in parsing or
// statement validation outside the sqlfront sentinels (sqlfront returns
// plain fmt.Errorf for lexer/parser failures). The server wraps those
// before classification so they travel as CodeBadRequest.
var ErrBadStatement = errors.New("wire: bad statement")

// codeTable is the status-code table. sentinel is what a client-side
// errors.Is matches a carried code against (CodeBadRequest and CodeInternal
// have no single origin: they match only *Error itself). retryable is the
// retryability matrix -- exactly the transient codes a client may reissue,
// with backoff; fatal codes mean the endpoint is dead for further work, so a
// client never retries into a fail-stopped engine; moved codes are what the
// losing side of a failover answers, whose remedy is rediscovering the
// primary rather than anything at this endpoint.
var codeTable = [...]struct {
	name      string
	sentinel  error
	retryable bool
	fatal     bool
	moved     bool
}{
	CodeOK:             {name: "ok"},
	CodeConflict:       {name: "conflict", sentinel: engineapi.ErrConflict, retryable: true},
	CodeDuplicate:      {name: "duplicate", sentinel: engineapi.ErrDuplicate},
	CodeNotFound:       {name: "not_found", sentinel: engineapi.ErrNotFound},
	CodeBusy:           {name: "busy", sentinel: ErrServerBusy, retryable: true},
	CodeBadRequest:     {name: "bad_request"},
	CodeClosed:         {name: "closed", sentinel: core.ErrClosed, fatal: true, moved: true},
	CodeDurabilityLost: {name: "durability_lost", sentinel: core.ErrDurabilityLost, fatal: true},
	CodeInternal:       {name: "internal"},
	CodeReadOnly:       {name: "read_only", sentinel: core.ErrReadOnlyReplica, moved: true},
	CodeStaleEpoch:     {name: "stale_epoch", sentinel: core.ErrStaleEpoch, moved: true},
	CodeInDoubt:        {name: "in_doubt", sentinel: core.ErrInDoubt},
	CodeWrongShard:     {name: "wrong_shard", sentinel: ErrWrongShard},
	CodeCursorGone:     {name: "cursor_gone", sentinel: ErrCursorGone},
}

// MaxCode is the highest assigned status code (sizing per-code tables).
const MaxCode = Code(len(codeTable) - 1)

// String names the code.
func (c Code) String() string {
	if c > MaxCode {
		return fmt.Sprintf("code(%d)", uint16(c))
	}
	return codeTable[c].name
}

// retryable reports whether a client may retry a request answered with c.
func retryable(c Code) bool { return c <= MaxCode && codeTable[c].retryable }

// Fatal reports codes after which the endpoint is known dead for further
// work: the client should fail fast and surface the error.
func Fatal(c Code) bool { return c <= MaxCode && codeTable[c].fatal }

// Moved reports codes that mean this node is no longer (or never was) the
// primary: the client should rediscover the primary, not retry here.
func Moved(c Code) bool { return c <= MaxCode && codeTable[c].moved }

// Classify maps an error onto exactly one stable code. Precedence puts
// fatal conditions first: an error that wraps both core.ErrDurabilityLost
// and a retryable sentinel must surface as fatal, never as retryable.
func Classify(err error) Code {
	// An error that already crossed the wire carries its code; trust it
	// unless a fatal sentinel is also present (fatal always wins). This
	// keeps codes stable when a remote error is re-classified, e.g. by a
	// proxy tier, including codes with no origin sentinel (bad_request).
	var we *Error
	if errors.As(err, &we) &&
		!errors.Is(err, core.ErrDurabilityLost) && !errors.Is(err, core.ErrClosed) {
		return we.Code
	}
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, core.ErrDurabilityLost):
		return CodeDurabilityLost
	case errors.Is(err, core.ErrClosed):
		return CodeClosed
	case errors.Is(err, ErrServerBusy), errors.Is(err, core.ErrWorkerBusy):
		return CodeBusy
	case errors.Is(err, core.ErrStaleEpoch):
		return CodeStaleEpoch
	case errors.Is(err, core.ErrReadOnlyReplica):
		return CodeReadOnly
	case errors.Is(err, core.ErrInDoubt):
		return CodeInDoubt
	case errors.Is(err, ErrWrongShard):
		return CodeWrongShard
	case errors.Is(err, ErrCursorGone):
		return CodeCursorGone
	case errors.Is(err, engineapi.ErrConflict):
		return CodeConflict
	case errors.Is(err, engineapi.ErrDuplicate):
		return CodeDuplicate
	case errors.Is(err, engineapi.ErrNotFound):
		return CodeNotFound
	case errors.Is(err, sqlfront.ErrNoTxn),
		errors.Is(err, sqlfront.ErrCrossEngine),
		errors.Is(err, sqlfront.ErrBadPlan),
		errors.Is(err, sqlfront.ErrParamCount),
		errors.Is(err, ErrBadStatement),
		errors.Is(err, ErrProtocol):
		return CodeBadRequest
	default:
		return CodeInternal
	}
}

// Error is a wire-carried failure: the stable code plus the server's
// message. Unwrap returns the code's sentinel, so
// errors.Is(err, engineapi.ErrConflict) etc. hold across the process
// boundary exactly as they do in-process.
type Error struct {
	Code Code
	Msg  string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Msg == "" {
		return "wire: " + e.Code.String()
	}
	return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg)
}

// Unwrap exposes the code's sentinel to errors.Is.
func (e *Error) Unwrap() error {
	if e.Code > MaxCode {
		return nil
	}
	return codeTable[e.Code].sentinel
}

// Retryable reports whether the error may be retried.
func (e *Error) Retryable() bool { return retryable(e.Code) }

// FromCode rehydrates a wire error (nil for CodeOK).
func FromCode(c Code, msg string) error {
	if c == CodeOK {
		return nil
	}
	return &Error{Code: c, Msg: msg}
}

// CodeOf returns the code err carries across the wire, CodeOK when err is
// not a wire error at all (an I/O failure, a local error).
func CodeOf(err error) Code {
	var we *Error
	if errors.As(err, &we) {
		return we.Code
	}
	return CodeOK
}
