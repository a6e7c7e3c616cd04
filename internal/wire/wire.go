// Package wire defines HiEngine's client/server wire protocol: frame
// layout, opcode and status-code tables, payload encodings, and the
// bidirectional mapping between Go errors and stable wire codes.
//
// The protocol is length-prefixed binary over a byte stream:
//
//	frame   := length uint32 | requestID uint64 | opcode uint8 | payload
//
// length is big-endian and covers requestID+opcode+payload (so a frame
// occupies 4+length bytes on the wire, length >= 9). Requests and responses
// share the layout; a response echoes its request's ID, which is what makes
// out-of-order (pipelined) responses possible: the server may answer a
// later request on a connection before an earlier commit's durability
// callback fires. Frames larger than MaxFrame, zero-length frames, or
// frames with an unknown opcode are protocol violations: the receiver must
// fail the connection (not the process).
//
// Every response payload starts with a status code (uint16) and a message
// (uvarint length + bytes); success-specific body follows. Codes are
// stable: each error crossing the wire carries exactly one code, chosen by
// Classify with fatal codes taking precedence, and the client rehydrates
// the code into an error that satisfies errors.Is against the same
// sentinel the server saw (engineapi.ErrConflict, core.ErrClosed, ...).
// Retryable reports the retryability matrix: only CodeConflict and
// CodeBusy may be retried; in particular CodeClosed and CodeDurabilityLost
// are fatal so a client never retries into a fail-stopped engine.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/obs"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
)

// MaxFrame bounds the length field: requestID + opcode + payload. Large
// enough for multi-megabyte scan results, small enough that a garbage
// length prefix cannot make the reader allocate unbounded memory.
const MaxFrame = 16 << 20

// headerSize is requestID + opcode, the fixed part covered by length.
const headerSize = 9

// MaxPayload is the largest payload that fits a legal frame: MaxFrame
// minus the fixed header the length field also covers. A sender must
// never emit a larger payload -- the receiver's ReadFrame would reject
// it as a protocol violation and fail the whole connection.
const MaxPayload = MaxFrame - headerSize

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
	OpReplHello Op = 12 // empty; response: manifest id + current csn
	OpReplList  Op = 13 // empty; response: plog stat list
	OpReplFetch Op = 14 // plog id, offset, max bytes; response: stat + data
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
	OpShardMap   Op = 15 // optional expected shard id+version; response: shard map
	OpTxnPrepare Op = 16 // gtid; response at durability: vote flag
	OpTxnDecide  Op = 17 // gtid + decision; response at durability: commit csn
	OpTxnStatus  Op = 18 // gtid; response: csn (committed) / in-doubt / not-found
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

// String names the opcode.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpExec:
		return "exec"
	case OpBegin:
		return "begin"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpStats:
		return "stats"
	case OpResponse:
		return "response"
	case OpPrepare:
		return "prepare"
	case OpExecStmt:
		return "exec_stmt"
	case OpCloseStmt:
		return "close_stmt"
	case OpExecAt:
		return "exec_at"
	case OpReplHello:
		return "repl_hello"
	case OpReplList:
		return "repl_list"
	case OpReplFetch:
		return "repl_fetch"
	case OpShardMap:
		return "shard_map"
	case OpTxnPrepare:
		return "txn_prepare"
	case OpTxnDecide:
		return "txn_decide"
	case OpTxnStatus:
		return "txn_status"
	case OpTxnRecover:
		return "txn_recover"
	case OpTxnForget:
		return "txn_forget"
	case OpScanOpen:
		return "scan_open"
	case OpScanNext:
		return "scan_next"
	case OpScanClose:
		return "scan_close"
	case OpExecBatch:
		return "exec_batch"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// MaxOp is the highest assigned opcode (sizing per-opcode metric tables).
const MaxOp = OpExecBatch

// TraceFlag marks a traced frame. It rides the opcode byte's high bit (no
// assigned opcode comes near it) so untraced frames are byte-identical to
// the pre-trace protocol: untraced requests pay zero extra bytes. A traced
// frame's payload begins with a big-endian 64-bit trace id, which the frame
// readers strip into Frame.TraceID; on a traced response the remaining
// payload then carries a stage-timing block (AppendTraceBlock) ahead of the
// usual code/msg/body.
const TraceFlag Op = 0x80

// traceIDSize is the trace id prefix a traced frame carries.
const traceIDSize = 8

// validRequest reports whether o is a client-issued opcode.
func validRequest(o Op) bool {
	return (o >= OpPing && o <= OpStats) || (o >= OpPrepare && o <= OpExecBatch)
}

// Code is a stable wire status code.
type Code uint16

// The code table. Codes are wire-stable: never renumber.
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

// MaxCode is the highest assigned status code (sizing per-code metric
// tables).
const MaxCode = CodeCursorGone

// String names the code.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeConflict:
		return "conflict"
	case CodeDuplicate:
		return "duplicate"
	case CodeNotFound:
		return "not_found"
	case CodeBusy:
		return "busy"
	case CodeBadRequest:
		return "bad_request"
	case CodeClosed:
		return "closed"
	case CodeDurabilityLost:
		return "durability_lost"
	case CodeInternal:
		return "internal"
	case CodeReadOnly:
		return "read_only"
	case CodeStaleEpoch:
		return "stale_epoch"
	case CodeInDoubt:
		return "in_doubt"
	case CodeWrongShard:
		return "wrong_shard"
	case CodeCursorGone:
		return "cursor_gone"
	default:
		return fmt.Sprintf("code(%d)", uint16(c))
	}
}

// Retryable is the retryability matrix: exactly the transient codes a
// client may retry (with backoff). Fatal and semantic codes are excluded.
func Retryable(c Code) bool { return c == CodeConflict || c == CodeBusy }

// Fatal reports codes after which the endpoint is known dead for further
// work: the client should fail fast and surface the error.
func Fatal(c Code) bool { return c == CodeClosed || c == CodeDurabilityLost }

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

// ErrBadStatement tags request errors that originate in parsing or
// statement validation outside the sqlfront sentinels (sqlfront returns
// plain fmt.Errorf for lexer/parser failures). The server wraps those
// before classification so they travel as CodeBadRequest.
var ErrBadStatement = errors.New("wire: bad statement")

// sentinels maps each non-OK code back to the sentinel a client-side
// errors.Is should match. CodeBadRequest and CodeInternal have no single
// origin sentinel; they unwrap to nil and match only *Error itself.
func sentinel(c Code) error {
	switch c {
	case CodeConflict:
		return engineapi.ErrConflict
	case CodeDuplicate:
		return engineapi.ErrDuplicate
	case CodeNotFound:
		return engineapi.ErrNotFound
	case CodeBusy:
		return ErrServerBusy
	case CodeClosed:
		return core.ErrClosed
	case CodeDurabilityLost:
		return core.ErrDurabilityLost
	case CodeReadOnly:
		return core.ErrReadOnlyReplica
	case CodeStaleEpoch:
		return core.ErrStaleEpoch
	case CodeInDoubt:
		return core.ErrInDoubt
	case CodeWrongShard:
		return ErrWrongShard
	case CodeCursorGone:
		return ErrCursorGone
	default:
		return nil
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
func (e *Error) Unwrap() error { return sentinel(e.Code) }

// Retryable reports whether the error may be retried.
func (e *Error) Retryable() bool { return Retryable(e.Code) }

// FromCode rehydrates a wire error (nil for CodeOK).
func FromCode(c Code, msg string) error {
	if c == CodeOK {
		return nil
	}
	return &Error{Code: c, Msg: msg}
}

// --- frame I/O -------------------------------------------------------------

// Frame is one decoded frame. Traced/TraceID/Hop reflect the TraceFlag
// bit: the readers strip the flag from Op and the trace extension (8-byte
// trace id, then the hop id uvarint) from Payload, so Op and Payload
// always carry their pre-trace meaning. Hop is the span id within a
// distributed trace: the coordinator numbers every request it fans out,
// and each participant echoes the hop on its traced response so stage
// timings stitch back into one tree tagged (trace id, hop, shard, opcode).
// Untraced frames carry neither field and are byte-identical to the
// pre-hop encoding.
type Frame struct {
	RequestID uint64
	Op        Op
	Payload   []byte
	TraceID   uint64
	Hop       uint32
	Traced    bool
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendFrame serializes a frame onto buf. A Traced frame gets the
// TraceFlag opcode bit, an 8-byte trace id, and a hop-id uvarint ahead of
// the payload.
func AppendFrame(buf []byte, f Frame) []byte {
	n := headerSize + len(f.Payload)
	op := f.Op
	if f.Traced {
		n += traceIDSize + uvarintLen(uint64(f.Hop))
		op |= TraceFlag
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = binary.BigEndian.AppendUint64(buf, f.RequestID)
	buf = append(buf, byte(op))
	if f.Traced {
		buf = binary.BigEndian.AppendUint64(buf, f.TraceID)
		buf = binary.AppendUvarint(buf, uint64(f.Hop))
	}
	return append(buf, f.Payload...)
}

// --- pooled buffers --------------------------------------------------------
//
// The frame path is the service's per-request hot loop: without reuse,
// every frame costs a payload allocation on read and a scratch buffer on
// write, and that churn is pure service-layer overhead on top of the wire
// itself. GetBuf/PutBuf expose one shared pool to the server's and
// client's write paths; FrameReader reuses a single payload buffer across
// reads. BenchmarkFrameRoundTrip pins the result at ~0 allocs/op.

// maxRetainedBuf bounds what a pooled (or FrameReader) buffer may retain:
// an occasional multi-megabyte scan result must not pin its high-water
// mark in every pool slot forever.
const maxRetainedBuf = 64 << 10

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf leases a reusable scratch buffer (length 0). Callers append, use,
// then PutBuf. The pointer indirection avoids per-Put allocations.
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf returns a leased buffer to the pool. Oversize buffers are dropped
// rather than retained.
func PutBuf(bp *[]byte) {
	if cap(*bp) > maxRetainedBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// WriteFrame writes one frame through a pooled scratch buffer: zero
// steady-state allocations.
func WriteFrame(w io.Writer, f Frame) error {
	bp := GetBuf()
	buf := AppendFrame((*bp)[:0], f)
	_, err := w.Write(buf)
	*bp = buf
	PutBuf(bp)
	return err
}

// FrameReader reads frames from one stream into a reusable payload buffer.
// The returned Frame's Payload aliases that buffer: it is valid only until
// the next Read. Callers that hand payload bytes to another goroutine (the
// client's response futures) must copy them first; callers that decode
// synchronously (the server's request loop -- row decoding copies) need
// not. One FrameReader serves one goroutine.
type FrameReader struct {
	r           io.Reader
	requestSide bool
	buf         []byte
	hdr         [4 + headerSize]byte // reused: a stack header would escape through the io.Reader call

	// OnFrameStart, when set, fires after a frame's 4-byte length prefix
	// has been read and before its body is read. The server uses it to
	// tighten the connection's read deadline: waiting for the next frame
	// is bounded by the idle budget, but once a frame has started arriving
	// its remainder must land within the per-frame read budget.
	OnFrameStart func()
}

// NewFrameReader builds a reader; requestSide selects which opcodes are
// legal exactly as in ReadFrame.
func NewFrameReader(r io.Reader, requestSide bool) *FrameReader {
	return &FrameReader{r: r, requestSide: requestSide, buf: make([]byte, 0, 4096)}
}

// Read reads one frame with the same validation and error contract as
// ReadFrame. The frame's Payload is only valid until the next Read.
func (fr *FrameReader) Read() (Frame, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr[:4]); err != nil {
		return Frame{}, err // io.EOF if clean, ErrUnexpectedEOF if torn
	}
	if fr.OnFrameStart != nil {
		fr.OnFrameStart()
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < headerSize {
		return Frame{}, fmt.Errorf("%w: frame length %d below header size", ErrProtocol, n)
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("%w: frame length %d exceeds max %d", ErrProtocol, n, MaxFrame)
	}
	if _, err := io.ReadFull(fr.r, hdr[4:]); err != nil {
		return Frame{}, unexpectedEOF(err)
	}
	op := Op(hdr[12])
	f := Frame{
		RequestID: binary.BigEndian.Uint64(hdr[4:12]),
		Op:        op &^ TraceFlag,
		Traced:    op&TraceFlag != 0,
	}
	if fr.requestSide && !validRequest(f.Op) {
		return Frame{}, fmt.Errorf("%w: unknown request opcode %d", ErrProtocol, uint8(f.Op))
	}
	if !fr.requestSide && f.Op != OpResponse {
		return Frame{}, fmt.Errorf("%w: expected response frame, got opcode %d", ErrProtocol, uint8(f.Op))
	}
	if rest := int(n) - headerSize; rest > 0 {
		if cap(fr.buf) < rest || cap(fr.buf) > maxRetainedBuf && rest <= maxRetainedBuf {
			// Grow to fit, or shrink back after an oversize frame so one
			// huge scan result does not pin its high-water mark.
			fr.buf = make([]byte, 0, max(rest, 4096))
		}
		fr.buf = fr.buf[:rest]
		if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
			return Frame{}, unexpectedEOF(err)
		}
		f.Payload = fr.buf
	}
	if err := stripTraceID(&f); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// stripTraceID moves a traced frame's trace extension (id prefix + hop
// uvarint) out of Payload.
func stripTraceID(f *Frame) error {
	if !f.Traced {
		return nil
	}
	if len(f.Payload) < traceIDSize {
		return fmt.Errorf("%w: traced frame too short for trace id", ErrProtocol)
	}
	f.TraceID = binary.BigEndian.Uint64(f.Payload)
	rest := f.Payload[traceIDSize:]
	hop, w := binary.Uvarint(rest)
	if w <= 0 || hop > math.MaxUint32 {
		return fmt.Errorf("%w: traced frame has no valid hop id", ErrProtocol)
	}
	f.Hop = uint32(hop)
	f.Payload = rest[w:]
	return nil
}

// ReadFrame reads one frame, enforcing MaxFrame and opcode validity.
// Violations return errors wrapping ErrProtocol: the caller must fail the
// connection. A clean EOF before the first length byte returns io.EOF; a
// torn frame (EOF mid-length or mid-payload) returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, requestSide bool) (Frame, error) {
	var hdr [4 + headerSize]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return Frame{}, err // io.EOF if clean, ErrUnexpectedEOF if torn
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < headerSize {
		return Frame{}, fmt.Errorf("%w: frame length %d below header size", ErrProtocol, n)
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("%w: frame length %d exceeds max %d", ErrProtocol, n, MaxFrame)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return Frame{}, unexpectedEOF(err)
	}
	op := Op(hdr[12])
	f := Frame{
		RequestID: binary.BigEndian.Uint64(hdr[4:12]),
		Op:        op &^ TraceFlag,
		Traced:    op&TraceFlag != 0,
	}
	if requestSide && !validRequest(f.Op) {
		return Frame{}, fmt.Errorf("%w: unknown request opcode %d", ErrProtocol, uint8(f.Op))
	}
	if !requestSide && f.Op != OpResponse {
		return Frame{}, fmt.Errorf("%w: expected response frame, got opcode %d", ErrProtocol, uint8(f.Op))
	}
	if rest := int(n) - headerSize; rest > 0 {
		f.Payload = make([]byte, rest)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, unexpectedEOF(err)
		}
	}
	if err := stripTraceID(&f); err != nil {
		return Frame{}, err
	}
	return f, nil
}

func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- payload encodings -----------------------------------------------------

// ErrPayloadCorrupt marks undecodable payloads; it is a protocol violation.
var ErrPayloadCorrupt = fmt.Errorf("%w: corrupt payload", ErrProtocol)

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 || uint64(len(buf)-w) < n {
		return "", nil, ErrPayloadCorrupt
	}
	return string(buf[w : w+int(n)]), buf[w+int(n):], nil
}

// AppendExec appends an OpExec payload (sql then the argument row) to buf.
func AppendExec(buf []byte, sql string, args []core.Value) []byte {
	buf = appendString(buf, sql)
	return core.EncodeRow(buf, args)
}

// EncodeExec builds an OpExec payload: sql then the argument row.
func EncodeExec(sql string, args []core.Value) []byte {
	return AppendExec(nil, sql, args)
}

// DecodeExec parses an OpExec payload.
func DecodeExec(payload []byte) (sql string, args []core.Value, err error) {
	sql, rest, err := readString(payload)
	if err != nil {
		return "", nil, err
	}
	args, err = core.DecodeRow(rest)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrPayloadCorrupt, err)
	}
	return sql, args, nil
}

// --- prepared-statement payloads -------------------------------------------

// EncodePrepare builds an OpPrepare payload: the SQL text.
func EncodePrepare(sql string) []byte {
	return appendString(nil, sql)
}

// DecodePrepare parses an OpPrepare payload.
func DecodePrepare(payload []byte) (string, error) {
	sql, rest, err := readString(payload)
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("%w: %d trailing bytes after prepare payload", ErrPayloadCorrupt, len(rest))
	}
	return sql, nil
}

// EncodePrepareResult builds the OpPrepare success body: the server-issued
// statement id and the statement's parameter count.
func EncodePrepareResult(id uint64, nParams int) []byte {
	buf := binary.AppendUvarint(nil, id)
	return binary.AppendUvarint(buf, uint64(nParams))
}

// DecodePrepareResult parses an OpPrepare success body.
func DecodePrepareResult(body []byte) (id uint64, nParams int, err error) {
	id, w := binary.Uvarint(body)
	if w <= 0 {
		return 0, 0, ErrPayloadCorrupt
	}
	n, w2 := binary.Uvarint(body[w:])
	if w2 <= 0 || n > 1<<16 {
		return 0, 0, ErrPayloadCorrupt
	}
	return id, int(n), nil
}

// AppendExecStmt appends an OpExecStmt payload (stmt id then the argument
// row) to buf.
func AppendExecStmt(buf []byte, id uint64, args []core.Value) []byte {
	buf = binary.AppendUvarint(buf, id)
	return core.EncodeRow(buf, args)
}

// EncodeExecStmt builds an OpExecStmt payload.
func EncodeExecStmt(id uint64, args []core.Value) []byte {
	return AppendExecStmt(nil, id, args)
}

// DecodeExecStmt parses an OpExecStmt payload.
func DecodeExecStmt(payload []byte) (id uint64, args []core.Value, err error) {
	id, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, nil, ErrPayloadCorrupt
	}
	args, err = core.DecodeRow(payload[w:])
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrPayloadCorrupt, err)
	}
	return id, args, nil
}

// EncodeCloseStmt builds an OpCloseStmt payload: the stmt id.
func EncodeCloseStmt(id uint64) []byte {
	return binary.AppendUvarint(nil, id)
}

// DecodeCloseStmt parses an OpCloseStmt payload.
func DecodeCloseStmt(payload []byte) (uint64, error) {
	id, w := binary.Uvarint(payload)
	if w <= 0 || w != len(payload) {
		return 0, ErrPayloadCorrupt
	}
	return id, nil
}

// --- responses -------------------------------------------------------------

// Result is the wire form of a statement result.
type Result struct {
	Columns  []string
	Rows     []core.Row
	Affected int
}

// AppendResponse appends an OpResponse payload (code, message, body) to buf.
func AppendResponse(buf []byte, c Code, msg string, body []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(c))
	buf = appendString(buf, msg)
	return append(buf, body...)
}

// EncodeResponse builds an OpResponse payload: code, message, then (on
// success, per the request opcode) the body. body may be nil.
func EncodeResponse(c Code, msg string, body []byte) []byte {
	return AppendResponse(nil, c, msg, body)
}

// AppendResponseFrame appends a complete response frame -- length header,
// request id, OpResponse, then the code/msg/body payload -- onto buf in a
// single pass, back-patching the length. With a pooled buf this makes the
// server's response path allocation-free up to the body bytes themselves.
func AppendResponseFrame(buf []byte, reqID uint64, c Code, msg string, body []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.BigEndian.AppendUint64(buf, reqID)
	buf = append(buf, byte(OpResponse))
	buf = AppendResponse(buf, c, msg, body)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// AppendTracedResponseFrame appends a complete traced response frame:
// length header, request id, OpResponse|TraceFlag, the 8-byte trace id,
// the request's hop id echoed back as a uvarint, the stage-timing block
// for tr, then the code/msg/body payload. The client's frame reader strips
// the id and hop; DecodeTraceBlock then peels the stage block off the
// payload ahead of DecodeResponse. Single-pass with a length back-patch,
// like AppendResponseFrame.
func AppendTracedResponseFrame(buf []byte, reqID, traceID uint64, tr *obs.Trace, c Code, msg string, body []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.BigEndian.AppendUint64(buf, reqID)
	buf = append(buf, byte(OpResponse|TraceFlag))
	buf = binary.BigEndian.AppendUint64(buf, traceID)
	buf = binary.AppendUvarint(buf, uint64(tr.Hop()))
	buf = AppendTraceBlock(buf, tr)
	buf = AppendResponse(buf, c, msg, body)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// StageTiming is one stage of a server-returned trace.
type StageTiming struct {
	Stage   obs.Stage
	BeginNS int64
	DurNS   int64
}

// TraceInfo is the server's stage-timing block for one traced response.
// TotalNS is the server-side elapsed time when the response was encoded,
// which is what lets the client split network from server time. Hop is
// the request's span id echoed back from the frame; Shard identifies the
// reporting node when it serves a shard map (HasShard), so a coordinator
// can stitch fan-out responses into one tree.
type TraceInfo struct {
	TraceID  uint64
	Hop      uint32
	Shard    uint32
	HasShard bool
	TotalNS  int64
	Batch    int
	PlanHit  bool
	PlanMiss bool
	Stages   []StageTiming
}

// trace-block plan-cache flag bits.
const (
	traceFlagPlanHit  = 1 << 0
	traceFlagPlanMiss = 1 << 1
)

// AppendTraceBlock appends tr's stage timings in wire form: stage count
// (uvarint), then per stage {stage byte, begin uvarint, dur uvarint}, then
// total-so-far (uvarint), batch size (uvarint), a plan-cache flag byte,
// and the reporting node's shard identity as shard+1 (uvarint; 0 means the
// node serves no shard map). A nil trace encodes as an empty block.
// Allocation-free given capacity.
func AppendTraceBlock(buf []byte, tr *obs.Trace) []byte {
	n := 0
	tr.VisitStages(func(obs.Stage, int64, int64) { n++ })
	buf = binary.AppendUvarint(buf, uint64(n))
	tr.VisitStages(func(s obs.Stage, beginNS, durNS int64) {
		buf = append(buf, byte(s))
		buf = binary.AppendUvarint(buf, uint64(beginNS))
		buf = binary.AppendUvarint(buf, uint64(durNS))
	})
	buf = binary.AppendUvarint(buf, uint64(tr.Since()))
	buf = binary.AppendUvarint(buf, uint64(tr.Batch()))
	var flags byte
	hit, miss := tr.PlanCacheSeen()
	if hit {
		flags |= traceFlagPlanHit
	}
	if miss {
		flags |= traceFlagPlanMiss
	}
	buf = append(buf, flags)
	shardEnc := uint64(0)
	if shard, ok := tr.Shard(); ok {
		shardEnc = uint64(shard) + 1
	}
	return binary.AppendUvarint(buf, shardEnc)
}

// DecodeTraceBlock parses a stage-timing block off the front of a traced
// response payload, returning the info and the remaining payload (the
// standard code/msg/body response). The caller fills TraceID and Hop from
// the frame.
func DecodeTraceBlock(payload []byte) (*TraceInfo, []byte, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(obs.NumStages) {
		return nil, nil, ErrPayloadCorrupt
	}
	payload = payload[w:]
	ti := &TraceInfo{}
	for i := uint64(0); i < n; i++ {
		if len(payload) < 1 {
			return nil, nil, ErrPayloadCorrupt
		}
		st := StageTiming{Stage: obs.Stage(payload[0])}
		payload = payload[1:]
		b, w := binary.Uvarint(payload)
		if w <= 0 {
			return nil, nil, ErrPayloadCorrupt
		}
		st.BeginNS = int64(b)
		payload = payload[w:]
		d, w := binary.Uvarint(payload)
		if w <= 0 {
			return nil, nil, ErrPayloadCorrupt
		}
		st.DurNS = int64(d)
		payload = payload[w:]
		ti.Stages = append(ti.Stages, st)
	}
	total, w := binary.Uvarint(payload)
	if w <= 0 {
		return nil, nil, ErrPayloadCorrupt
	}
	payload = payload[w:]
	batch, w := binary.Uvarint(payload)
	if w <= 0 || batch > 1<<24 {
		return nil, nil, ErrPayloadCorrupt
	}
	payload = payload[w:]
	if len(payload) < 1 {
		return nil, nil, ErrPayloadCorrupt
	}
	flags := payload[0]
	payload = payload[1:]
	shardEnc, w := binary.Uvarint(payload)
	if w <= 0 || shardEnc > 1<<32 {
		return nil, nil, ErrPayloadCorrupt
	}
	payload = payload[w:]
	ti.TotalNS = int64(total)
	ti.Batch = int(batch)
	ti.PlanHit = flags&traceFlagPlanHit != 0
	ti.PlanMiss = flags&traceFlagPlanMiss != 0
	if shardEnc > 0 {
		ti.Shard = uint32(shardEnc - 1)
		ti.HasShard = true
	}
	return ti, payload, nil
}

// DecodeResponse splits an OpResponse payload into code, message and body.
func DecodeResponse(payload []byte) (Code, string, []byte, error) {
	if len(payload) < 2 {
		return 0, "", nil, ErrPayloadCorrupt
	}
	c := Code(binary.BigEndian.Uint16(payload))
	msg, body, err := readString(payload[2:])
	if err != nil {
		return 0, "", nil, err
	}
	return c, msg, body, nil
}

// AppendResult appends a Result in response-body form to buf.
func AppendResult(buf []byte, r *Result) []byte {
	buf = appendResultHeader(buf, r.Affected, r.Columns, len(r.Rows))
	for _, row := range r.Rows {
		buf = core.EncodeRow(buf, row)
	}
	return buf
}

// appendResultHeader appends everything of a Result body ahead of its rows.
func appendResultHeader(buf []byte, affected int, cols []string, nRows int) []byte {
	buf = binary.AppendUvarint(buf, uint64(affected))
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = appendString(buf, c)
	}
	return binary.AppendUvarint(buf, uint64(nRows))
}

// AppendEncodedResult appends a Result body whose rows arrive pre-encoded:
// rowData must hold exactly nRows core.EncodeRow encodings. This is how the
// server sends every row-bearing response, one-shot or cursor page: rows
// reach it already in wire form, spliced out of storage, and are never
// decoded on the way to the socket.
func AppendEncodedResult(buf []byte, affected int, cols []string, nRows int, rowData []byte) []byte {
	buf = appendResultHeader(buf, affected, cols, nRows)
	return append(buf, rowData...)
}

// EncodeResult serializes a Result as a response body.
func EncodeResult(r *Result) []byte {
	return AppendResult(nil, r)
}

// DecodeResult parses a Result body. Trailing bytes past the encoded result
// are ignored, which is what lets newer servers append a commit-CSN suffix
// (AppendEncodedResultCSN) without breaking older clients.
func DecodeResult(body []byte) (*Result, error) {
	r, _, err := decodeResult(body)
	return r, err
}

// AppendEncodedResultCSN is AppendEncodedResult followed by the session's
// last commit CSN. Decoders that know about the suffix recover it with
// DecodeResultCSN; older decoders ignore it.
func AppendEncodedResultCSN(buf []byte, affected int, cols []string, nRows int, rowData []byte, csn uint64) []byte {
	buf = AppendEncodedResult(buf, affected, cols, nRows, rowData)
	return binary.AppendUvarint(buf, csn)
}

// DecodeResultCSN parses a Result body plus the optional trailing commit
// CSN (0 when the server did not send one).
func DecodeResultCSN(body []byte) (*Result, uint64, error) {
	r, rest, err := decodeResult(body)
	if err != nil {
		return nil, 0, err
	}
	if len(rest) == 0 {
		return r, 0, nil
	}
	csn, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, 0, ErrPayloadCorrupt
	}
	return r, csn, nil
}

// decodeResult materialises a whole result with a handful of allocations:
// the rows share one Value arena and one private copy of the row bytes
// (core.DecodeRows), so nothing in the Result aliases body -- which may be
// a FrameReader's or a pooled buffer, reused as soon as the caller returns.
func decodeResult(body []byte) (*Result, []byte, error) {
	affected, w := binary.Uvarint(body)
	if w <= 0 {
		return nil, nil, ErrPayloadCorrupt
	}
	body = body[w:]
	nCols, w := binary.Uvarint(body)
	// A column name is at least its length byte, a row at least its
	// column-count byte: a count above the bytes left is corrupt, and is
	// refused before it sizes anything.
	if w <= 0 || nCols > 1<<16 || nCols > uint64(len(body)-w) {
		return nil, nil, ErrPayloadCorrupt
	}
	body = body[w:]
	r := &Result{Affected: int(affected)}
	if nCols > 0 {
		r.Columns = make([]string, nCols)
	}
	for i := range r.Columns {
		var err error
		r.Columns[i], body, err = readString(body)
		if err != nil {
			return nil, nil, err
		}
	}
	nRows, w := binary.Uvarint(body)
	if w <= 0 || nRows > 1<<24 || nRows > uint64(len(body)-w) {
		return nil, nil, ErrPayloadCorrupt
	}
	rows, rest, err := core.DecodeRows(body[w:], int(nRows))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrPayloadCorrupt, err)
	}
	r.Rows = rows
	return r, rest, nil
}

// --- streaming-scan payloads -------------------------------------------------

// MaxFetchSize bounds the per-page row count a scan request may ask for.
// Pages are additionally bounded by bytes on the server, so this only has
// to keep a garbage fetch size from pre-sizing absurd buffers.
const MaxFetchSize = 1 << 20

// AppendScanOpen appends an OpScanOpen payload: the requested fetch size
// (rows per page; 0 lets the server pick its default), then sql and the
// argument row, exactly as OpExec carries them.
func AppendScanOpen(buf []byte, fetchSize int, sql string, args []core.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(fetchSize))
	return AppendExec(buf, sql, args)
}

// EncodeScanOpen builds an OpScanOpen payload.
func EncodeScanOpen(fetchSize int, sql string, args []core.Value) []byte {
	return AppendScanOpen(nil, fetchSize, sql, args)
}

// DecodeScanOpen parses an OpScanOpen payload.
func DecodeScanOpen(payload []byte) (fetchSize int, sql string, args []core.Value, err error) {
	fs, w := binary.Uvarint(payload)
	if w <= 0 || fs > MaxFetchSize {
		return 0, "", nil, ErrPayloadCorrupt
	}
	sql, args, err = DecodeExec(payload[w:])
	return int(fs), sql, args, err
}

// EncodeScanNext builds an OpScanNext payload: cursor id, then the fetch
// size for this page (0 keeps the cursor's current size).
func EncodeScanNext(id uint64, fetchSize int) []byte {
	buf := binary.AppendUvarint(nil, id)
	return binary.AppendUvarint(buf, uint64(fetchSize))
}

// DecodeScanNext parses an OpScanNext payload.
func DecodeScanNext(payload []byte) (id uint64, fetchSize int, err error) {
	id, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, 0, ErrPayloadCorrupt
	}
	fs, w2 := binary.Uvarint(payload[w:])
	if w2 <= 0 || w+w2 != len(payload) || fs > MaxFetchSize {
		return 0, 0, ErrPayloadCorrupt
	}
	return id, int(fs), nil
}

// EncodeScanClose builds an OpScanClose payload: the cursor id.
func EncodeScanClose(id uint64) []byte { return binary.AppendUvarint(nil, id) }

// DecodeScanClose parses an OpScanClose payload.
func DecodeScanClose(payload []byte) (uint64, error) { return DecodeCloseStmt(payload) }

// AppendCursorPage appends a cursor-page response body (the success body of
// OpScanOpen and OpScanNext): cursor id, done flag, then an encoded-rows
// Result (see AppendEncodedResult). Taking the rows in encoded form lets the
// server bound a page by bytes while it pulls rows.
func AppendCursorPage(buf []byte, id uint64, done bool, cols []string, nRows int, rowData []byte) []byte {
	buf = binary.AppendUvarint(buf, id)
	if done {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	// affected 0: a scan mutates nothing
	return AppendEncodedResult(buf, 0, cols, nRows, rowData)
}

// DecodeCursorPage parses a cursor-page body. done=true means the server
// exhausted the scan and already closed the cursor; the client must not
// send OpScanNext or OpScanClose for it.
func DecodeCursorPage(body []byte) (id uint64, done bool, r *Result, err error) {
	id, w := binary.Uvarint(body)
	if w <= 0 || len(body) < w+1 || body[w] > 1 {
		return 0, false, nil, ErrPayloadCorrupt
	}
	done = body[w] == 1
	r, rest, err := decodeResult(body[w+1:])
	if err != nil {
		return 0, false, nil, err
	}
	if len(rest) != 0 {
		return 0, false, nil, ErrPayloadCorrupt
	}
	return id, done, r, nil
}

// --- batch-exec payloads -----------------------------------------------------

// BatchStmt is one statement of an OpExecBatch payload.
type BatchStmt struct {
	SQL  string
	Args []core.Value
}

// MaxBatch bounds the statement count of one OpExecBatch frame.
const MaxBatch = 1 << 16

// AppendExecBatch appends an OpExecBatch payload: the statement count, then
// each statement exactly as OpExec carries it (sql, args row).
func AppendExecBatch(buf []byte, stmts []BatchStmt) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(stmts)))
	for _, st := range stmts {
		buf = AppendExec(buf, st.SQL, st.Args)
	}
	return buf
}

// EncodeExecBatch builds an OpExecBatch payload.
func EncodeExecBatch(stmts []BatchStmt) []byte { return AppendExecBatch(nil, stmts) }

// DecodeExecBatch parses an OpExecBatch payload. Empty batches are a
// payload error: there is nothing to answer durability for.
func DecodeExecBatch(payload []byte) ([]BatchStmt, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n == 0 || n > MaxBatch {
		return nil, ErrPayloadCorrupt
	}
	payload = payload[w:]
	out := make([]BatchStmt, 0, n)
	for i := uint64(0); i < n; i++ {
		sql, rest, err := readString(payload)
		if err != nil {
			return nil, err
		}
		args, rest2, err := core.DecodeRowPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPayloadCorrupt, err)
		}
		out = append(out, BatchStmt{SQL: sql, Args: args})
		payload = rest2
	}
	if len(payload) != 0 {
		return nil, ErrPayloadCorrupt
	}
	return out, nil
}

// AppendBatchResult appends the OpExecBatch success body: the
// per-statement affected-row vector, then the session's last commit CSN
// (the batch's own commit when it ran outside an explicit transaction).
func AppendBatchResult(buf []byte, affected []int, csn uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(affected)))
	for _, a := range affected {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	return binary.AppendUvarint(buf, csn)
}

// DecodeBatchResult parses an OpExecBatch success body.
func DecodeBatchResult(body []byte) (affected []int, csn uint64, err error) {
	n, w := binary.Uvarint(body)
	if w <= 0 || n > MaxBatch {
		return nil, 0, ErrPayloadCorrupt
	}
	body = body[w:]
	affected = make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		a, w2 := binary.Uvarint(body)
		if w2 <= 0 {
			return nil, 0, ErrPayloadCorrupt
		}
		affected = append(affected, int(a))
		body = body[w2:]
	}
	csn, w = binary.Uvarint(body)
	if w <= 0 || w != len(body) {
		return nil, 0, ErrPayloadCorrupt
	}
	return affected, csn, nil
}

// --- greeting --------------------------------------------------------------

// Server roles carried in the connection greeting.
const (
	RolePrimary byte = 0
	RoleReplica byte = 1
)

// greetingMagic distinguishes a greeting body from other RequestID-0
// responses.
var greetingMagic = [4]byte{'H', 'I', 'G', 'R'}

// EncodeGreeting builds the server greeting body: magic, the server's role,
// (for a replica) the primary's address so a client connected only to
// the replica can find the write endpoint, and the node's current primary
// epoch so failing-over clients can tell a promoted node from a stale one.
// The greeting travels as an unsolicited CodeOK response with RequestID 0
// immediately after accept; clients that predate it ignore unknown-ID OK
// frames, so it is backward-compatible, and the epoch rides as a trailing
// uvarint that pre-epoch decoders never read.
func EncodeGreeting(role byte, primaryAddr string, epoch uint64) []byte {
	buf := append([]byte(nil), greetingMagic[:]...)
	buf = append(buf, role)
	buf = appendString(buf, primaryAddr)
	return binary.AppendUvarint(buf, epoch)
}

// DecodeGreeting parses a greeting body. ok is false when the body is not a
// greeting (some other RequestID-0 response). A greeting from a pre-epoch
// server decodes with epoch 0 (no epoch claim).
func DecodeGreeting(body []byte) (role byte, primaryAddr string, epoch uint64, ok bool) {
	if len(body) < 5 || [4]byte(body[:4]) != greetingMagic {
		return 0, "", 0, false
	}
	role = body[4]
	primaryAddr, rest, err := readString(body[5:])
	if err != nil {
		return 0, "", 0, false
	}
	if len(rest) > 0 {
		e, w := binary.Uvarint(rest)
		if w <= 0 || w != len(rest) {
			return 0, "", 0, false
		}
		epoch = e
	}
	return role, primaryAddr, epoch, true
}

// --- read-your-writes exec -------------------------------------------------

// AppendExecAt appends an OpExecAt payload: the read-your-writes token (the
// client's last-seen commit CSN), then sql and the argument row.
func AppendExecAt(buf []byte, minCSN uint64, sql string, args []core.Value) []byte {
	buf = binary.AppendUvarint(buf, minCSN)
	return AppendExec(buf, sql, args)
}

// EncodeExecAt builds an OpExecAt payload.
func EncodeExecAt(minCSN uint64, sql string, args []core.Value) []byte {
	return AppendExecAt(nil, minCSN, sql, args)
}

// DecodeExecAt parses an OpExecAt payload.
func DecodeExecAt(payload []byte) (minCSN uint64, sql string, args []core.Value, err error) {
	minCSN, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, "", nil, ErrPayloadCorrupt
	}
	sql, args, err = DecodeExec(payload[w:])
	return minCSN, sql, args, err
}

// --- log-shipping payloads -------------------------------------------------

// PLogStat is the wire form of one primary PLog's state, enough for a
// shipper to mirror it: identity, placement tier, durable size, and the
// sealed/torn flags that gate tail classification on the follower.
type PLogStat struct {
	ID     srss.PLogID
	Tier   srss.Tier
	Size   int64
	Sealed bool
	Torn   bool
}

// plog stat flag bits.
const (
	plogFlagSealed = 1 << 0
	plogFlagTorn   = 1 << 1
)

func appendPLogStat(buf []byte, st PLogStat) []byte {
	buf = append(buf, st.ID[:]...)
	buf = append(buf, byte(st.Tier))
	var flags byte
	if st.Sealed {
		flags |= plogFlagSealed
	}
	if st.Torn {
		flags |= plogFlagTorn
	}
	buf = append(buf, flags)
	return binary.AppendUvarint(buf, uint64(st.Size))
}

func readPLogStat(buf []byte) (PLogStat, []byte, error) {
	var st PLogStat
	if len(buf) < len(st.ID)+2 {
		return st, nil, ErrPayloadCorrupt
	}
	copy(st.ID[:], buf)
	buf = buf[len(st.ID):]
	st.Tier = srss.Tier(buf[0])
	flags := buf[1]
	st.Sealed = flags&plogFlagSealed != 0
	st.Torn = flags&plogFlagTorn != 0
	size, w := binary.Uvarint(buf[2:])
	if w <= 0 {
		return st, nil, ErrPayloadCorrupt
	}
	st.Size = int64(size)
	return st, buf[2+w:], nil
}

// EncodeReplHelloReq builds an OpReplHello request payload: the caller's
// highest observed primary epoch. Pre-epoch shippers send an empty payload,
// which decodes as epoch 0 (no claim). A promoted primary also uses this to
// fence its predecessor: presenting the new epoch forces the old node to
// demote on receipt.
func EncodeReplHelloReq(epoch uint64) []byte {
	return binary.AppendUvarint(nil, epoch)
}

// DecodeReplHelloReq parses an OpReplHello request payload.
func DecodeReplHelloReq(payload []byte) (epoch uint64, err error) {
	if len(payload) == 0 {
		return 0, nil
	}
	e, w := binary.Uvarint(payload)
	if w <= 0 || w != len(payload) {
		return 0, ErrPayloadCorrupt
	}
	return e, nil
}

// EncodeReplHello builds the OpReplHello success body: the primary's
// manifest PLog ID, its current commit CSN, and its primary epoch (a
// trailing uvarint pre-epoch decoders ignore).
func EncodeReplHello(manifest srss.PLogID, csn uint64, epoch uint64) []byte {
	buf := append([]byte(nil), manifest[:]...)
	buf = binary.AppendUvarint(buf, csn)
	return binary.AppendUvarint(buf, epoch)
}

// DecodeReplHello parses an OpReplHello success body. A body from a
// pre-epoch primary decodes with epoch 0.
func DecodeReplHello(body []byte) (manifest srss.PLogID, csn uint64, epoch uint64, err error) {
	if len(body) < len(manifest) {
		return manifest, 0, 0, ErrPayloadCorrupt
	}
	copy(manifest[:], body)
	csn, w := binary.Uvarint(body[len(manifest):])
	if w <= 0 {
		return manifest, 0, 0, ErrPayloadCorrupt
	}
	if rest := body[len(manifest)+w:]; len(rest) > 0 {
		e, w2 := binary.Uvarint(rest)
		if w2 <= 0 {
			return manifest, 0, 0, ErrPayloadCorrupt
		}
		epoch = e
	}
	return manifest, csn, epoch, nil
}

// EncodeReplList builds the OpReplList success body: every PLog the primary
// currently holds.
func EncodeReplList(stats []PLogStat) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(stats)))
	for _, st := range stats {
		buf = appendPLogStat(buf, st)
	}
	return buf
}

// DecodeReplList parses an OpReplList success body.
func DecodeReplList(body []byte) ([]PLogStat, error) {
	n, w := binary.Uvarint(body)
	if w <= 0 || n > 1<<20 {
		return nil, ErrPayloadCorrupt
	}
	body = body[w:]
	out := make([]PLogStat, 0, n)
	for i := uint64(0); i < n; i++ {
		st, rest, err := readPLogStat(body)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		body = rest
	}
	return out, nil
}

// EncodeReplFetch builds an OpReplFetch request payload: which PLog, from
// which offset, at most how many bytes, and the caller's observed primary
// epoch (trailing uvarint; pre-epoch decoders never read it).
func EncodeReplFetch(id srss.PLogID, offset int64, maxBytes int, epoch uint64) []byte {
	buf := append([]byte(nil), id[:]...)
	buf = binary.AppendUvarint(buf, uint64(offset))
	buf = binary.AppendUvarint(buf, uint64(maxBytes))
	return binary.AppendUvarint(buf, epoch)
}

// DecodeReplFetch parses an OpReplFetch request payload. A payload from a
// pre-epoch shipper decodes with epoch 0 (no claim).
func DecodeReplFetch(payload []byte) (id srss.PLogID, offset int64, maxBytes int, epoch uint64, err error) {
	if len(payload) < len(id) {
		return id, 0, 0, 0, ErrPayloadCorrupt
	}
	copy(id[:], payload)
	payload = payload[len(id):]
	off, w := binary.Uvarint(payload)
	if w <= 0 {
		return id, 0, 0, 0, ErrPayloadCorrupt
	}
	mx, w2 := binary.Uvarint(payload[w:])
	if w2 <= 0 || mx > MaxPayload {
		return id, 0, 0, 0, ErrPayloadCorrupt
	}
	if rest := payload[w+w2:]; len(rest) > 0 {
		e, w3 := binary.Uvarint(rest)
		if w3 <= 0 {
			return id, 0, 0, 0, ErrPayloadCorrupt
		}
		epoch = e
	}
	return id, int64(off), int(mx), epoch, nil
}

// EncodeReplChunk builds the OpReplFetch success body: the PLog's current
// stat (so the shipper can seal its mirror the moment it holds all bytes of
// a sealed PLog) followed by the data chunk read at the requested offset.
func EncodeReplChunk(st PLogStat, data []byte) []byte {
	buf := appendPLogStat(nil, st)
	return append(buf, data...)
}

// DecodeReplChunk parses an OpReplFetch success body. The returned data
// aliases body.
func DecodeReplChunk(body []byte) (PLogStat, []byte, error) {
	st, rest, err := readPLogStat(body)
	if err != nil {
		return st, nil, err
	}
	return st, rest, nil
}

// --- sharding payloads -------------------------------------------------------

// ShardMap is the wire form of a cluster's static topology: a versioned
// shard-id -> node-address table. Records route to shards by hashing their
// primary key (internal/shard owns the hash); the map only names who serves
// each shard. SelfID is the serving node's own shard id, so a client that
// bootstrapped from one member knows which slice of the key space that
// member owns.
type ShardMap struct {
	Version uint64
	SelfID  uint32
	Addrs   []string // index = shard id
}

// EncodeShardMapReq builds an OpShardMap request payload. An empty
// expectation (expect=false) just fetches the map; with expect=true the
// request asserts the caller believes it is talking to shard id -- the
// server answers CodeWrongShard on a mismatch, which is how a router
// detects a stale map before running a transaction on the wrong node.
func EncodeShardMapReq(expect bool, id uint32) []byte {
	if !expect {
		return nil
	}
	return binary.AppendUvarint(nil, uint64(id))
}

// DecodeShardMapReq parses an OpShardMap request payload.
func DecodeShardMapReq(payload []byte) (expect bool, id uint32, err error) {
	if len(payload) == 0 {
		return false, 0, nil
	}
	v, w := binary.Uvarint(payload)
	if w <= 0 || w != len(payload) || v > 1<<31 {
		return false, 0, ErrPayloadCorrupt
	}
	return true, uint32(v), nil
}

// EncodeShardMap builds the OpShardMap success body.
func EncodeShardMap(m *ShardMap) []byte {
	buf := binary.AppendUvarint(nil, m.Version)
	buf = binary.AppendUvarint(buf, uint64(m.SelfID))
	buf = binary.AppendUvarint(buf, uint64(len(m.Addrs)))
	for _, a := range m.Addrs {
		buf = appendString(buf, a)
	}
	return buf
}

// DecodeShardMap parses an OpShardMap success body.
func DecodeShardMap(body []byte) (*ShardMap, error) {
	ver, w := binary.Uvarint(body)
	if w <= 0 {
		return nil, ErrPayloadCorrupt
	}
	body = body[w:]
	self, w := binary.Uvarint(body)
	if w <= 0 || self > 1<<31 {
		return nil, ErrPayloadCorrupt
	}
	body = body[w:]
	n, w := binary.Uvarint(body)
	if w <= 0 || n == 0 || n > 1<<16 {
		return nil, ErrPayloadCorrupt
	}
	body = body[w:]
	m := &ShardMap{Version: ver, SelfID: uint32(self), Addrs: make([]string, 0, n)}
	for i := uint64(0); i < n; i++ {
		var a string
		var err error
		a, body, err = readString(body)
		if err != nil {
			return nil, err
		}
		m.Addrs = append(m.Addrs, a)
	}
	return m, nil
}

// --- 2PC payloads ------------------------------------------------------------

// Prepare vote flags returned in the OpTxnPrepare success body.
const (
	// PreparedWrites: the transaction's writes are prepared and durable;
	// the coordinator owes this participant a decision.
	PreparedWrites byte = 0
	// PreparedReadOnly: the transaction read but wrote nothing here; it
	// committed locally at prepare time and needs no decision.
	PreparedReadOnly byte = 1
)

// EncodeTxnPrepare builds an OpTxnPrepare payload: the global transaction
// id under which the open session transaction prepares.
func EncodeTxnPrepare(gtid string) []byte {
	return appendString(nil, gtid)
}

// DecodeTxnPrepare parses an OpTxnPrepare payload.
func DecodeTxnPrepare(payload []byte) (string, error) {
	gtid, rest, err := readString(payload)
	if err != nil {
		return "", err
	}
	if len(rest) != 0 || gtid == "" {
		return "", ErrPayloadCorrupt
	}
	return gtid, nil
}

// EncodeTxnDecide builds an OpTxnDecide payload: the gtid and the
// coordinator's decision.
func EncodeTxnDecide(gtid string, commit bool) []byte {
	buf := appendString(nil, gtid)
	if commit {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// DecodeTxnDecide parses an OpTxnDecide payload.
func DecodeTxnDecide(payload []byte) (gtid string, commit bool, err error) {
	gtid, rest, err := readString(payload)
	if err != nil {
		return "", false, err
	}
	if len(rest) != 1 || rest[0] > 1 || gtid == "" {
		return "", false, ErrPayloadCorrupt
	}
	return gtid, rest[0] == 1, nil
}

// EncodeTxnStatus builds an OpTxnStatus payload (and, with the same shape,
// DecodeTxnStatus parses it): the gtid being asked about.
func EncodeTxnStatus(gtid string) []byte { return appendString(nil, gtid) }

// DecodeTxnStatus parses an OpTxnStatus payload.
func DecodeTxnStatus(payload []byte) (string, error) { return DecodeTxnPrepare(payload) }

// Transaction outcome states carried in the OpTxnStatus success body. The
// values are wire-stable. TxnUnknown means the participant has no memory of
// the gtid at all -- under presumed abort a coordinator treats it exactly
// like TxnAborted, but the distinction is kept on the wire for diagnostics.
const (
	TxnUnknown   byte = 0
	TxnInDoubt   byte = 1
	TxnCommitted byte = 2
	TxnAborted   byte = 3
)

// EncodeTxnState builds the OpTxnStatus success body: outcome state plus the
// commit CSN (0 unless committed).
func EncodeTxnState(state byte, csn uint64) []byte {
	return binary.AppendUvarint([]byte{state}, csn)
}

// DecodeTxnState parses an OpTxnStatus success body.
func DecodeTxnState(body []byte) (byte, uint64, error) {
	if len(body) < 2 || body[0] > TxnAborted {
		return 0, 0, ErrPayloadCorrupt
	}
	csn, w := binary.Uvarint(body[1:])
	if w <= 0 || 1+w != len(body) {
		return 0, 0, ErrPayloadCorrupt
	}
	return body[0], csn, nil
}

// EncodeTxnCSN builds the uvarint commit-CSN body carried by successful
// OpTxnDecide and OpTxnStatus responses (0 for an abort decision).
func EncodeTxnCSN(csn uint64) []byte { return binary.AppendUvarint(nil, csn) }

// DecodeTxnCSN parses a commit-CSN body. An empty body decodes as 0.
func DecodeTxnCSN(body []byte) (uint64, error) {
	if len(body) == 0 {
		return 0, nil
	}
	csn, w := binary.Uvarint(body)
	if w <= 0 {
		return 0, ErrPayloadCorrupt
	}
	return csn, nil
}

// EncodeTxnForget builds an OpTxnForget payload: the gtid to prune.
func EncodeTxnForget(gtid string) []byte { return appendString(nil, gtid) }

// DecodeTxnForget parses an OpTxnForget payload.
func DecodeTxnForget(payload []byte) (string, error) { return DecodeTxnPrepare(payload) }

// EncodeGTIDList builds the OpTxnRecover success body: the participant's
// in-doubt gtids.
func EncodeGTIDList(gtids []string) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(gtids)))
	for _, g := range gtids {
		buf = appendString(buf, g)
	}
	return buf
}

// DecodeGTIDList parses an OpTxnRecover success body.
func DecodeGTIDList(body []byte) ([]string, error) {
	n, w := binary.Uvarint(body)
	if w <= 0 || n > 1<<20 {
		return nil, ErrPayloadCorrupt
	}
	body = body[w:]
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var g string
		var err error
		g, body, err = readString(body)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	if len(body) != 0 {
		return nil, ErrPayloadCorrupt
	}
	return out, nil
}
