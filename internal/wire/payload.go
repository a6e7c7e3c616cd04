package wire

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
	"unsafe"
)

// Payload codecs: one AppendX/EncodeX and one DecodeX per payload shape.
// Request payloads and response bodies that the per-request path builds
// append to a caller's (pooled) buffer; the rest return a fresh slice.
//
// Protocol extensions ride as optional trailing uvarints (the commit CSN on
// result bodies, the primary epoch on the greeting and the log-shipping
// hello/fetch, the statement flags on exec and exec_stmt), under one rule,
// reader.trailer: absent decodes as 0 so older peers interoperate, a varint
// that stops short is corrupt, and bytes after the last trailer a decoder
// knows belong to a newer peer and are ignored.

// ErrPayloadCorrupt marks undecodable payloads; it is a protocol violation.
var ErrPayloadCorrupt = fmt.Errorf("%w: corrupt payload", ErrProtocol)

// reader walks one payload front to back. The first malformed field latches
// err and empties the reader, so a decoder reads all its fields and checks
// once; every count is bounded before it sizes anything.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// take returns the next n bytes, or nil after latching corruption.
func (r *reader) take(n uint64) []byte {
	if uint64(len(r.b)) < n {
		r.fail(ErrPayloadCorrupt)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) uvarint() uint64 {
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.fail(ErrPayloadCorrupt)
		return 0
	}
	r.b = r.b[w:]
	return v
}

// upTo reads a uvarint that must not exceed max.
func (r *reader) upTo(max uint64) uint64 {
	v := r.uvarint()
	if v > max {
		r.fail(ErrPayloadCorrupt)
		return 0
	}
	return v
}

// count reads an element count: at most max, and no more than the bytes left
// could hold at one byte per element.
func (r *reader) count(max uint64) int {
	n := r.upTo(max)
	if n > uint64(len(r.b)) {
		r.fail(ErrPayloadCorrupt)
		return 0
	}
	return int(n)
}

// trailer reads an optional trailing uvarint: 0 when the payload ends here.
func (r *reader) trailer() uint64 {
	if len(r.b) == 0 {
		return 0
	}
	return r.uvarint()
}

func (r *reader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// flag reads a byte that must be 0 or 1.
func (r *reader) flag() bool {
	b := r.byte()
	if b > 1 {
		r.fail(ErrPayloadCorrupt)
	}
	return b == 1
}

func (r *reader) uint16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *reader) str() string { return string(r.take(r.uvarint())) }

// borrowedStr is str aliasing the payload: valid as long as the payload is.
func (r *reader) borrowedStr() string {
	b := r.take(r.uvarint())
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func (r *reader) plogID() (id srss.PLogID) {
	copy(id[:], r.take(uint64(len(id))))
	return id
}

// args reads one core.EncodeRow encoding (a statement's argument row) into
// dst's backing array when it has room. The row is borrowed
// (core.DecodeRowBorrowed): its strings point into the payload, so an
// argument lives as long as the request it came in, and whatever keeps one
// longer clones it.
func (r *reader) args(dst []core.Value) []core.Value {
	if r.err != nil {
		return nil
	}
	row, rest, err := core.DecodeRowBorrowed(dst, r.b)
	if err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrPayloadCorrupt, err))
		return nil
	}
	r.b = rest
	return row
}

// end is the strict finish: trailing bytes are corruption. Payloads with no
// optional trailer use it; the others return r.err.
func (r *reader) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Errorf("%w: %d trailing bytes", ErrPayloadCorrupt, len(r.b)))
	}
	return r.err
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFlag(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// --- statements ------------------------------------------------------------

// FlagBegin is bit 0 of the statement flags, the optional trailer of an OpExec
// or OpExecStmt payload: open the session transaction, then run the statement
// inside it. If the statement fails, the transaction it opened is rolled
// back, so a begin-carrying statement never executes outside a transaction
// and never leaves one behind. A server refuses bits it does not know.
const FlagBegin uint64 = 1 << 0

// AppendStmtFlags closes an OpExec or OpExecStmt payload with its flags
// trailer. No flags, no bytes: the payload stays what it was before flags.
func AppendStmtFlags(buf []byte, flags uint64) []byte {
	if flags == 0 {
		return buf
	}
	return binary.AppendUvarint(buf, flags)
}

// AppendExec appends an OpExec payload: sql, then the argument row.
func AppendExec(buf []byte, sql string, args []core.Value) []byte {
	buf = appendString(buf, sql)
	return core.EncodeRow(buf, args)
}

// DecodeExecFlags parses an OpExec payload and its flags trailer. The
// argument row is decoded into dst's backing array when it has room: a
// caller that passes the same row every time decodes without allocating one.
// Both the SQL text and the arguments are borrowed, as DecodeScanOpen's are:
// they point into the payload, so whatever keeps either past the request
// copies it (the plan cache copies the text of a miss before it parses it).
func DecodeExecFlags(payload []byte, dst []core.Value) (sql string, args []core.Value, flags uint64, err error) {
	r := reader{b: payload}
	sql, args, flags = r.borrowedStr(), r.args(dst), r.trailer()
	return sql, args, flags, r.err
}

// AppendExecAt appends an OpExecAt payload: the read-your-writes token (the
// client's last-seen commit CSN), then an OpExec payload.
func AppendExecAt(buf []byte, minCSN uint64, sql string, args []core.Value) []byte {
	buf = binary.AppendUvarint(buf, minCSN)
	return AppendExec(buf, sql, args)
}

// DecodeExecAt splits an OpExecAt payload into its token and the OpExec
// payload that follows it.
func DecodeExecAt(payload []byte) (minCSN uint64, exec []byte, err error) {
	r := reader{b: payload}
	minCSN = r.uvarint()
	return minCSN, r.b, r.err
}

// EncodePrepare builds an OpPrepare payload: the SQL text.
func EncodePrepare(sql string) []byte { return appendString(nil, sql) }

// DecodePrepare parses an OpPrepare payload.
func DecodePrepare(payload []byte) (string, error) {
	r := reader{b: payload}
	sql := r.str()
	return sql, r.end()
}

// EncodePrepareResult builds the OpPrepare success body: the server-issued
// statement id and the statement's parameter count.
func EncodePrepareResult(id uint64, nParams int) []byte {
	buf := binary.AppendUvarint(nil, id)
	return binary.AppendUvarint(buf, uint64(nParams))
}

// DecodePrepareResult parses an OpPrepare success body.
func DecodePrepareResult(body []byte) (id uint64, nParams int, err error) {
	r := reader{b: body}
	id, nParams = r.uvarint(), int(r.upTo(1<<16))
	return id, nParams, r.err
}

// AppendExecStmt appends an OpExecStmt payload: stmt id, then the argument
// row.
func AppendExecStmt(buf []byte, id uint64, args []core.Value) []byte {
	buf = binary.AppendUvarint(buf, id)
	return core.EncodeRow(buf, args)
}

// DecodeExecStmt parses an OpExecStmt payload, ignoring its flags.
func DecodeExecStmt(payload []byte) (id uint64, args []core.Value, err error) {
	id, args, _, err = DecodeExecStmtFlags(payload, nil)
	return id, args, err
}

// DecodeExecStmtFlags parses an OpExecStmt payload and its flags trailer,
// decoding the argument row into dst as DecodeExecFlags does.
func DecodeExecStmtFlags(payload []byte, dst []core.Value) (id uint64, args []core.Value, flags uint64, err error) {
	r := reader{b: payload}
	id, args, flags = r.uvarint(), r.args(dst), r.trailer()
	return id, args, flags, r.err
}

// EncodeHandle builds the payload of the opcodes that name one
// connection-scoped handle and nothing else: OpCloseStmt (statement id) and
// OpScanClose (cursor id).
func EncodeHandle(id uint64) []byte { return binary.AppendUvarint(nil, id) }

// DecodeHandle parses an OpCloseStmt or OpScanClose payload.
func DecodeHandle(payload []byte) (uint64, error) {
	r := reader{b: payload}
	id := r.uvarint()
	return id, r.end()
}

// --- results ---------------------------------------------------------------

// Result is the wire form of a statement result.
type Result struct {
	Columns  []string
	Rows     []core.Row
	Affected int

	arena core.RowArena // Rows' arrays, when DecodeResultCSN decodes into this Result
	slab  core.RowSlab  // Rows' arrays, when DecodeCursorPage decodes into this Result
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

// appendEncodedResult appends a Result body whose rows arrive pre-encoded:
// rowData must hold exactly nRows core.EncodeRow encodings. This is how the
// server sends every row-bearing response, one-shot or cursor page: rows
// reach it already in wire form, spliced out of storage, and are never
// decoded on the way to the socket.
func appendEncodedResult(buf []byte, affected int, cols []string, nRows int, rowData []byte) []byte {
	buf = appendResultHeader(buf, affected, cols, nRows)
	return append(buf, rowData...)
}

// AppendEncodedResultCSN is appendEncodedResult followed by the session's
// last commit CSN as a trailer: the read-your-writes token.
func AppendEncodedResultCSN(buf []byte, affected int, cols []string, nRows int, rowData []byte, csn uint64) []byte {
	buf = appendEncodedResult(buf, affected, cols, nRows, rowData)
	return binary.AppendUvarint(buf, csn)
}

// DecodeResult parses a Result body, ignoring the CSN trailer, into a fresh
// Result whose rows copy what they need of body: body may be reused as soon
// as it returns.
func DecodeResult(body []byte) (*Result, error) {
	r := reader{b: body}
	res := r.result(nil, false)
	r.trailer()
	if r.err != nil {
		return nil, r.err
	}
	return res, nil
}

// DecodeResultCSN parses a Result body that is never rewritten -- one
// FrameReader.ReadKept read -- plus its commit-CSN trailer: a string or bytes
// value in the rows aliases body (core.DecodeKeptRows), and a Value kept
// pins body's chunk. With a nil dst the Result is a fresh one, the caller's
// to keep with its rows. With a non-nil dst it is dst, decoded into in place:
// dst's Columns slice stays when the body's names equal it (comparing
// allocates nothing), and the rows reuse dst's row headers and Value arena
// (core.RowArena), so the Rows of dst's previous result are overwritten and
// nothing is allocated. A Value taken out of any result stays valid. A
// prepared statement decodes each of its results into its own Result this
// way: a result is the statement's until its next Exec.
func DecodeResultCSN(body []byte, dst *Result) (*Result, uint64, error) {
	r := reader{b: body}
	res := r.result(dst, true)
	csn := r.trailer()
	if r.err != nil {
		return nil, 0, r.err
	}
	return res, csn, nil
}

// ResultCSN reads only the commit-CSN trailer of a Result body, validating
// the rest as DecodeResultCSN does without materialising it: what a commit's
// answer is read for.
func ResultCSN(body []byte) (uint64, error) {
	r := reader{b: body}
	r.uvarint() // affected
	for n := r.count(1 << 16); n > 0; n-- {
		r.take(r.uvarint())
	}
	nRows := r.count(1 << 24)
	if r.err != nil {
		return 0, r.err
	}
	rest, err := core.SkipRows(r.b, nRows)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrPayloadCorrupt, err)
	}
	r.b = rest
	csn := r.trailer()
	return csn, r.err
}

// result materialises a whole result into dst with a handful of
// allocations. A kept payload, never rewritten, is aliased by the values,
// whose arrays are dst's arena's (core.DecodeKeptRows); any other, which may
// be a buffer reused as soon as the caller returns, is copied, and the copy
// and the arrays are carved from dst's slab (core.DecodeRows). A nil dst
// decodes into a fresh Result and fresh arrays. A column name is at least
// its length byte and a row at least its column-count byte, which is what
// bounds the two counts.
func (r *reader) result(dst *Result, kept bool) *Result {
	var arena *core.RowArena
	var slab *core.RowSlab
	if dst == nil {
		dst = new(Result)
	} else {
		arena, slab = &dst.arena, &dst.slab
	}
	dst.Affected = int(r.uvarint())
	dst.Columns = r.columns(dst.Columns)
	nRows := r.count(1 << 24)
	if r.err != nil {
		return nil
	}
	var err error
	if kept {
		dst.Rows, r.b, err = core.DecodeKeptRows(arena, r.b, nRows)
	} else {
		dst.Rows, r.b, err = core.DecodeRows(slab, r.b, nRows)
	}
	if err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrPayloadCorrupt, err))
		return nil
	}
	return dst
}

// columns reads a result's column names: prev itself when they equal it
// (comparing allocates nothing), a fresh slice otherwise -- never prev
// overwritten, which earlier results may share.
func (r *reader) columns(prev []string) []string {
	n := r.count(1 << 16)
	if n == 0 {
		return nil
	}
	if n == len(prev) {
		from, same := r.b, true
		for i := 0; i < n && same; i++ {
			same = string(r.take(r.uvarint())) == prev[i]
		}
		switch {
		case r.err != nil:
			return nil
		case same:
			return prev
		}
		r.b = from // a name differs: read them afresh
	}
	cols := make([]string, n)
	for i := range cols {
		cols[i] = r.str()
	}
	return cols
}

// --- streaming scans -------------------------------------------------------

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

// DecodeScanOpen parses an OpScanOpen payload, decoding the argument row
// into dst's backing array when it has room. Both the SQL text and the
// arguments are borrowed: they point into the payload, so whatever keeps
// either past the request copies it.
func DecodeScanOpen(payload []byte, dst []core.Value) (fetchSize int, sql string, args []core.Value, err error) {
	r := reader{b: payload}
	fetchSize, sql, args = int(r.upTo(MaxFetchSize)), r.borrowedStr(), r.args(dst)
	return fetchSize, sql, args, r.err
}

// AppendScanNext appends an OpScanNext payload: cursor id, then the fetch
// size for this page (0 keeps the cursor's current size).
func AppendScanNext(buf []byte, id uint64, fetchSize int) []byte {
	buf = binary.AppendUvarint(buf, id)
	return binary.AppendUvarint(buf, uint64(fetchSize))
}

// DecodeScanNext parses an OpScanNext payload.
func DecodeScanNext(payload []byte) (id uint64, fetchSize int, err error) {
	r := reader{b: payload}
	id, fetchSize = r.uvarint(), int(r.upTo(MaxFetchSize))
	return id, fetchSize, r.end()
}

// AppendCursorPage appends a cursor-page response body (the success body of
// OpScanOpen and OpScanNext): cursor id, done flag, then an encoded-rows
// Result (see appendEncodedResult). Taking the rows in encoded form lets the
// server bound a page by bytes while it pulls rows.
func AppendCursorPage(buf []byte, id uint64, done bool, cols []string, nRows int, rowData []byte) []byte {
	buf = binary.AppendUvarint(buf, id)
	buf = appendFlag(buf, done)
	// affected 0: a scan mutates nothing
	return appendEncodedResult(buf, 0, cols, nRows, rowData)
}

// DecodeCursorPage parses a cursor-page body. done=true means the server
// exhausted the scan and already closed the cursor; the client must not send
// OpScanNext or OpScanClose for it. A non-nil dst is the Result the page
// decodes into, its Columns kept when the names equal them, and the rows,
// with a copy of their bytes, are carved from dst's append-only slab
// (core.RowSlab); with a nil dst all of it is fresh. Either way nothing in
// the rows aliases body and no later page overwrites them: they are the
// caller's to keep, and pin only the slab's chunks they lie in.
func DecodeCursorPage(body []byte, dst *Result) (id uint64, done bool, res *Result, err error) {
	r := reader{b: body}
	id, done, res = r.uvarint(), r.flag(), r.result(dst, false)
	if err := r.end(); err != nil {
		return 0, false, nil, err
	}
	return id, done, res, nil
}

// --- batches ---------------------------------------------------------------

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

// DecodeExecBatch parses an OpExecBatch payload. Empty batches are a
// payload error: there is nothing to answer durability for.
func DecodeExecBatch(payload []byte) ([]BatchStmt, error) {
	r := reader{b: payload}
	n := r.count(MaxBatch)
	if n == 0 {
		return nil, ErrPayloadCorrupt
	}
	out := make([]BatchStmt, n)
	for i := range out {
		out[i] = BatchStmt{SQL: r.str(), Args: r.args(nil)}
	}
	if err := r.end(); err != nil {
		return nil, err
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
	r := reader{b: body}
	affected = make([]int, r.count(MaxBatch))
	for i := range affected {
		affected[i] = int(r.uvarint())
	}
	csn = r.uvarint()
	if err := r.end(); err != nil {
		return nil, 0, err
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
const greetingMagic = "HIGR"

// EncodeGreeting builds the server greeting body: magic, the server's role,
// (for a replica) the primary's address so a client connected only to
// the replica can find the write endpoint, and as a trailer the node's
// current primary epoch so failing-over clients can tell a promoted node
// from a stale one. The greeting travels as an unsolicited CodeOK response
// with RequestID 0 immediately after accept; clients that predate it ignore
// unknown-ID OK frames.
func EncodeGreeting(role byte, primaryAddr string, epoch uint64) []byte {
	buf := append([]byte(greetingMagic), role)
	buf = appendString(buf, primaryAddr)
	return binary.AppendUvarint(buf, epoch)
}

// DecodeGreeting parses a greeting body. ok is false when the body is not a
// greeting (some other RequestID-0 response).
func DecodeGreeting(body []byte) (role byte, primaryAddr string, epoch uint64, ok bool) {
	r := reader{b: body}
	if string(r.take(uint64(len(greetingMagic)))) != greetingMagic {
		return 0, "", 0, false
	}
	role, primaryAddr, epoch = r.byte(), r.str(), r.trailer()
	return role, primaryAddr, epoch, r.err == nil
}

// --- log shipping ----------------------------------------------------------

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

func (r *reader) plogStat() PLogStat {
	st := PLogStat{ID: r.plogID(), Tier: srss.Tier(r.byte())}
	flags := r.byte()
	st.Sealed = flags&plogFlagSealed != 0
	st.Torn = flags&plogFlagTorn != 0
	st.Size = int64(r.uvarint())
	return st
}

// EncodeReplHelloReq builds an OpReplHello request payload: the caller's
// highest observed primary epoch, a trailer on an otherwise empty payload.
// A promoted primary also uses this to fence its predecessor: presenting
// the new epoch forces the old node to demote on receipt.
func EncodeReplHelloReq(epoch uint64) []byte { return binary.AppendUvarint(nil, epoch) }

// DecodeReplHelloReq parses an OpReplHello request payload.
func DecodeReplHelloReq(payload []byte) (epoch uint64, err error) {
	r := reader{b: payload}
	epoch = r.trailer()
	return epoch, r.err
}

// EncodeReplHello builds the OpReplHello success body: the primary's
// manifest PLog ID, its current commit CSN, and its primary epoch (trailer).
func EncodeReplHello(manifest srss.PLogID, csn uint64, epoch uint64) []byte {
	buf := append([]byte(nil), manifest[:]...)
	buf = binary.AppendUvarint(buf, csn)
	return binary.AppendUvarint(buf, epoch)
}

// DecodeReplHello parses an OpReplHello success body.
func DecodeReplHello(body []byte) (manifest srss.PLogID, csn uint64, epoch uint64, err error) {
	r := reader{b: body}
	manifest, csn, epoch = r.plogID(), r.uvarint(), r.trailer()
	return manifest, csn, epoch, r.err
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
	r := reader{b: body}
	out := make([]PLogStat, r.count(1<<20))
	for i := range out {
		out[i] = r.plogStat()
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// EncodeReplFetch builds an OpReplFetch request payload: which PLog, from
// which offset, at most how many bytes, and the caller's observed primary
// epoch (trailer).
func EncodeReplFetch(id srss.PLogID, offset int64, maxBytes int, epoch uint64) []byte {
	buf := append([]byte(nil), id[:]...)
	buf = binary.AppendUvarint(buf, uint64(offset))
	buf = binary.AppendUvarint(buf, uint64(maxBytes))
	return binary.AppendUvarint(buf, epoch)
}

// DecodeReplFetch parses an OpReplFetch request payload.
func DecodeReplFetch(payload []byte) (id srss.PLogID, offset int64, maxBytes int, epoch uint64, err error) {
	r := reader{b: payload}
	id, offset, maxBytes, epoch = r.plogID(), int64(r.uvarint()), int(r.upTo(MaxPayload)), r.trailer()
	return id, offset, maxBytes, epoch, r.err
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
	r := reader{b: body}
	st := r.plogStat()
	return st, r.b, r.err
}

// --- sharding --------------------------------------------------------------

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
	r := reader{b: payload}
	id = uint32(r.upTo(1 << 31))
	return true, id, r.end()
}

// EncodeShardMap builds the OpShardMap success body.
func EncodeShardMap(m *ShardMap) []byte {
	buf := binary.AppendUvarint(nil, m.Version)
	buf = binary.AppendUvarint(buf, uint64(m.SelfID))
	return appendStrings(buf, m.Addrs)
}

// DecodeShardMap parses an OpShardMap success body.
func DecodeShardMap(body []byte) (*ShardMap, error) {
	r := reader{b: body}
	m := &ShardMap{Version: r.uvarint(), SelfID: uint32(r.upTo(1 << 31)), Addrs: r.strings(1 << 16)}
	if r.err != nil || len(m.Addrs) == 0 {
		return nil, ErrPayloadCorrupt
	}
	return m, nil
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

// strings reads a counted string list of at most max entries.
func (r *reader) strings(max uint64) []string {
	out := make([]string, r.count(max))
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// --- 2PC -------------------------------------------------------------------

// Prepare vote flags returned in the OpTxnPrepare success body.
const (
	// PreparedWrites: the transaction's writes are prepared and durable;
	// the coordinator owes this participant a decision.
	PreparedWrites byte = 0
	// PreparedReadOnly: the transaction read but wrote nothing here; it
	// committed locally at prepare time and needs no decision.
	PreparedReadOnly byte = 1
)

// EncodeGTID builds the payload of the opcodes that name one global
// transaction and nothing else: OpTxnPrepare (the id under which the open
// session transaction prepares), OpTxnStatus and OpTxnForget.
func EncodeGTID(gtid string) []byte { return appendString(nil, gtid) }

// DecodeGTID parses an OpTxnPrepare, OpTxnStatus or OpTxnForget payload.
func DecodeGTID(payload []byte) (string, error) {
	r := reader{b: payload}
	gtid := r.str()
	if err := r.end(); err != nil || gtid == "" {
		return "", ErrPayloadCorrupt
	}
	return gtid, nil
}

// NewGTID builds a global transaction id naming its home shard (the commit
// point), the coordinator's identity seed, and a per-coordinator sequence
// number: "h<home>.<seed>.<seq>". The home is recoverable from the string
// alone -- a participant holding only the gtid knows whom to ask for the
// authoritative outcome.
func NewGTID(home uint32, seed, seq uint64) string {
	return fmt.Sprintf("h%d.%x.%d", home, seed, seq)
}

// HomeShard extracts the home shard id from a gtid.
func HomeShard(gtid string) (uint32, error) {
	dot := strings.IndexByte(gtid, '.')
	if !strings.HasPrefix(gtid, "h") || dot < 2 {
		return 0, fmt.Errorf("wire: malformed gtid %q", gtid)
	}
	id, err := strconv.ParseUint(gtid[1:dot], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("wire: malformed gtid %q: %v", gtid, err)
	}
	return uint32(id), nil
}

// EncodeTxnDecide builds an OpTxnDecide payload: the gtid and the
// coordinator's decision.
func EncodeTxnDecide(gtid string, commit bool) []byte {
	return appendFlag(appendString(nil, gtid), commit)
}

// DecodeTxnDecide parses an OpTxnDecide payload.
func DecodeTxnDecide(payload []byte) (gtid string, commit bool, err error) {
	r := reader{b: payload}
	gtid, commit = r.str(), r.flag()
	if err := r.end(); err != nil || gtid == "" {
		return "", false, ErrPayloadCorrupt
	}
	return gtid, commit, nil
}

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
func DecodeTxnState(body []byte) (state byte, csn uint64, err error) {
	r := reader{b: body}
	state, csn = r.byte(), r.uvarint()
	if err := r.end(); err != nil || state > TxnAborted {
		return 0, 0, ErrPayloadCorrupt
	}
	return state, csn, nil
}

// AppendTxnCSN appends the OpTxnDecide success body: the commit CSN, 0 for
// an abort decision.
func AppendTxnCSN(buf []byte, csn uint64) []byte { return binary.AppendUvarint(buf, csn) }

// DecodeTxnCSN parses an OpTxnDecide success body (an empty one is 0).
func DecodeTxnCSN(body []byte) (uint64, error) {
	r := reader{b: body}
	csn := r.trailer()
	return csn, r.err
}

// EncodeGTIDList builds the OpTxnRecover success body: the participant's
// in-doubt gtids.
func EncodeGTIDList(gtids []string) []byte { return appendStrings(nil, gtids) }

// --- trace block -----------------------------------------------------------

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

func (r *reader) traceBlock() *TraceInfo {
	ti := &TraceInfo{}
	if n := r.upTo(uint64(obs.NumStages)); n > 0 {
		ti.Stages = make([]StageTiming, n)
	}
	for i := range ti.Stages {
		ti.Stages[i] = StageTiming{Stage: obs.Stage(r.byte()), BeginNS: int64(r.uvarint()), DurNS: int64(r.uvarint())}
	}
	ti.TotalNS = int64(r.uvarint())
	ti.Batch = int(r.upTo(1 << 24))
	flags := r.byte()
	ti.PlanHit = flags&traceFlagPlanHit != 0
	ti.PlanMiss = flags&traceFlagPlanMiss != 0
	if shardEnc := r.upTo(1 << 32); shardEnc > 0 {
		ti.Shard, ti.HasShard = uint32(shardEnc-1), true
	}
	if r.err != nil {
		return nil
	}
	return ti
}
