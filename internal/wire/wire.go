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
// Error.Retryable reports the retryability matrix: only CodeConflict and
// CodeBusy may be retried; in particular CodeClosed and CodeDurabilityLost
// are fatal so a client never retries into a fail-stopped engine.
//
// The opcode and status-code tables (tables.go) hold every per-opcode and
// per-code fact; the payload codecs (payload.go) share one reader and one
// rule for optional trailing fields.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"hiengine/internal/obs"
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

// traceIDSize is the trace id prefix a traced frame carries.
const traceIDSize = 8

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
// the next Read. Callers that keep payload bytes past it (the client, parking
// a response for a pipelined request that is not the one being waited for)
// must copy them first; callers that decode before they read again (the
// server's request loop, the client's own response -- row decoding copies)
// need not. One FrameReader serves one goroutine at a time.
type FrameReader struct {
	r           io.Reader
	requestSide bool
	buf         []byte
	hdr         [4 + headerSize]byte // reused: a stack header would escape through the io.Reader call
	wireLen     int

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
	fr.wireLen = 4 + int(n)
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

// WireLen is the number of bytes the frame last read occupied on the wire:
// length prefix, header, trace extension and payload.
func (fr *FrameReader) WireLen() int { return fr.wireLen }

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
// The frame owns its payload (a FrameReader's is only lent).
func ReadFrame(r io.Reader, requestSide bool) (Frame, error) {
	return (&FrameReader{r: r, requestSide: requestSide}).Read()
}

func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- deadlines -------------------------------------------------------------

// Deadline arms a socket deadline lazily: a request that finds the armed
// deadline within [now+budget, now+budget+budget/4] leaves it alone, so a busy
// connection pays a clock read per request instead of a timer update. The
// deadline never fires early and at most a quarter of the budget late.
type Deadline struct{ armed time.Time }

// Arm makes the deadline cover budget from now, calling set (a net.Conn's
// SetDeadline, SetReadDeadline or SetWriteDeadline) only when it must move.
func (d *Deadline) Arm(set func(time.Time) error, now time.Time, budget time.Duration) {
	want := now.Add(budget)
	if d.armed.Before(want) || d.armed.Sub(want) > budget/4 {
		d.armed = want.Add(budget / 4)
		set(d.armed)
	}
}

// --- responses -------------------------------------------------------------

// AppendResponse appends an OpResponse payload to buf: code, message, then
// (on success, per the request opcode) the body. body may be nil.
func AppendResponse(buf []byte, c Code, msg string, body []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(c))
	buf = appendString(buf, msg)
	return append(buf, body...)
}

// AppendResponseFrame appends a complete response frame onto buf in a single
// pass, back-patching the length: length header, request id, OpResponse,
// then the code/msg/body payload. With a pooled buf this makes the server's
// response path allocation-free up to the body bytes themselves. A non-nil
// tr makes it a traced response: the opcode carries TraceFlag, and the
// 8-byte trace id, the request's hop id echoed back as a uvarint and tr's
// stage-timing block (AppendTraceBlock) precede the payload.
func AppendResponseFrame(buf []byte, reqID uint64, tr *obs.Trace, c Code, msg string, body []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.BigEndian.AppendUint64(buf, reqID)
	if tr == nil {
		buf = append(buf, byte(OpResponse))
	} else {
		buf = append(buf, byte(OpResponse|TraceFlag))
		buf = binary.BigEndian.AppendUint64(buf, tr.ID())
		buf = binary.AppendUvarint(buf, uint64(tr.Hop()))
		buf = AppendTraceBlock(buf, tr)
	}
	buf = AppendResponse(buf, c, msg, body)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// Response is one decoded response frame. Body aliases the frame's payload.
// Trace is the server's stage-timing block, present on the terminal
// response of a traced unit.
type Response struct {
	Code  Code
	Msg   string
	Body  []byte
	Trace *TraceInfo
}

// Err is the response's status as an error: nil for CodeOK, else a *Error.
func (r Response) Err() error { return FromCode(r.Code, r.Msg) }

// DecodeResponseFrame splits a response frame the way every receiver must:
// on a traced frame the stage-timing block comes off the front of the
// payload (tagged with the frame's trace id and hop), then code, message and
// body. An untraced response to a traced request is fine (the server may not
// be tracing); the reverse never happens.
func DecodeResponseFrame(f Frame) (Response, error) {
	r := reader{b: f.Payload}
	var resp Response
	if f.Traced {
		resp.Trace = r.traceBlock()
		if resp.Trace != nil {
			resp.Trace.TraceID, resp.Trace.Hop = f.TraceID, f.Hop
		}
	}
	resp.Code = Code(r.uint16())
	resp.Msg = r.str()
	resp.Body = r.b
	return resp, r.err
}
