// Package wal implements HiEngine's reliable, scalable redo-only logging
// (Section 4.2): a database write-ahead log architected on top of SRSS
// PLogs.
//
// Instead of a centralized log buffer, the manager maintains multiple log
// streams (one per transaction worker in the paper). Workers accumulate log
// records in private buffers during forward processing; at commit time the
// encoded buffer is handed to the stream's I/O goroutine, which batches
// pending commits (group commit / commit pipelining, Johnson et al.'s
// Aether) into a single replicated PLog append and then notifies each
// transaction of its durable location. Only committed transactions ever
// reach the log, so the log is redo-only and doubles as version storage:
// every operation record is a full record version addressed by a stable
// 8-byte address.
//
// Physically the log is a sequence of fixed-size segments, each backed by
// one PLog (the paper's current implementation does the same). A 16-bit
// segment ID and a 32-bit offset form the permanent address of a log
// record (Figure 4b). The segment-ID -> PLog-ID mapping is itself persisted
// by appending to a designated metadata PLog whose ID is the bootstrap
// handle for recovery.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

// Chaos injection sites owned by this package. The engine comes from the
// backing srss.Service (Service.Chaos), so one seed drives the whole stack.
const (
	// SiteFlushBefore fires in the I/O goroutine before the group append:
	// a crash here loses the whole batch (nothing durable, all commits
	// failed).
	SiteFlushBefore = "wal.flush.before_append"
	// SiteFlushAfter fires after the group append is durable but before
	// any commit is acknowledged: recovery replays the batch, but every
	// caller saw an error -- the ambiguous-commit window at batch
	// granularity.
	SiteFlushAfter = "wal.flush.after_append"
)

func init() {
	chaos.RegisterSite(SiteFlushBefore, "crash before group append: batch lost, commits failed")
	chaos.RegisterSite(SiteFlushAfter, "crash after group append: batch durable, acks lost")
}

// Addr is the permanent address of a log record: segment ID in bits [48,64),
// runtime metadata in bits [32,48) (unused on disk), and the byte offset
// into the segment's PLog in bits [0,32).
type Addr uint64

// InvalidAddr is the zero address; no record ever lives at it because every
// segment PLog begins with a segment header byte.
const InvalidAddr Addr = 0

// MakeAddr packs a segment ID and offset.
func MakeAddr(seg uint16, off uint32) Addr {
	return Addr(uint64(seg)<<48 | uint64(off))
}

// Segment extracts the segment ID.
func (a Addr) Segment() uint16 { return uint16(a >> 48) }

// Offset extracts the offset within the segment.
func (a Addr) Offset() uint32 { return uint32(a) }

// Add returns the address rel bytes further into the same segment. It
// panics if the offset addition wraps uint32: a wrapped sum would silently
// produce a bogus but well-formed address (e.g. from a corrupt logOff),
// and every later read through it would return the wrong record.
func (a Addr) Add(rel uint32) Addr {
	off := a.Offset() + rel
	if off < a.Offset() {
		panic(fmt.Sprintf("wal: address offset overflow: %v + %d wraps uint32", a, rel))
	}
	return MakeAddr(a.Segment(), off)
}

// String renders seg@off.
func (a Addr) String() string { return fmt.Sprintf("%d@%d", a.Segment(), a.Offset()) }

// Op tags for log records.
const (
	OpInsert byte = 'I'
	OpUpdate byte = 'U'
	OpDelete byte = 'D'
	// OpPrepare is a 2PC prepare record: its payload wraps the gtid plus
	// the transaction's whole (unstamped) write buffer, so the prepared
	// writes become durable in one group-commit append without becoming
	// visible. Table/RID are 0 and the CSN field stays 0 -- visibility is
	// deferred to the decision.
	OpPrepare byte = 'P'
	// OpDecide is a 2PC decision record: payload carries the gtid and the
	// commit/abort verdict; the CSN field carries the decision CSN (commit
	// and abort both consume one, so checkpoint fencing can order every
	// decision against the checkpoint horizon).
	OpDecide byte = 'G'
	// OpForget is a 2PC tombstone: payload carries a gtid whose decision
	// the coordinator has confirmed durably applied at every participant.
	// Recovery and followers drop the gtid's retained 2PC entry, releasing
	// the checkpoint-fence and compaction protection on its prepare and
	// decision segments. The CSN field stays 0.
	OpForget byte = 'F'
)

// Record is one decoded log record: a full record version (or a delete
// marker) tagged with its creating transaction's CSN -- which a point read of
// a transaction's later records does not know (see DecodeRecord).
type Record struct {
	Op      byte
	CSN     uint64
	Table   uint32
	RID     uint64
	Payload []byte
}

// The transaction is the log's unit. A transaction's buffer is its records
// back to back; only the first carries the CSN, and commit stamps it once:
//
//	first record:  op | CSN (8 bytes) | table | RID | payload length | payload | CRC-32C
//	continuation:  op |                 table | RID | payload length | payload | CRC-32C
//
// Spare bits of the op byte (the tags are ASCII capitals) say which a record
// is, and commit marks the transaction's last record as its end. Neither mark
// is under the checksum, like the CSN. A one-record transaction is a first
// record with the end mark, exactly as long as a record has always been.
const (
	markCont byte = 0x80 // a continuation: no CSN of its own
	markEnd  byte = 0x20 // the last record of its transaction
	markBits      = markCont | markEnd
)

// bodyAt is where the checksummed body of a record with the given marks
// begins: past the op byte and, in a transaction's first record, the CSN.
func bodyAt(mark byte) int {
	if mark&markCont != 0 {
		return 1
	}
	return 9
}

// castagnoli is the CRC-32C table: amd64 and arm64 compute it with a CPU
// instruction, several bytes per cycle, where a byte-serial hash costs a
// multiply per byte.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is a record's integrity checksum (storage and network corruption
// must not replay as valid data): CRC-32C over the record's body -- the
// three uvarints and the payload -- seeded with op+1, so that the op tag is
// covered too and a run of zero bytes never sums to zero.
func checksum(op byte, body []byte) uint32 {
	return crc32.Update(uint32(op)+1, castagnoli, body)
}

// A record is built in two steps, so that a writer whose payload is produced
// by an encoder can have it encoded where it will be logged: ReserveRecord
// writes the header and makes room for the payload, the caller fills the
// payload in, SealRecord closes the record with its checksum. Once the
// transaction's records are sealed, StampTxn stamps its CSN and end mark.

// ReserveRecord appends to buf, a transaction's buffer, the header of a record
// with an n-byte payload and n bytes for the payload, which it returns (cap ==
// len) for the caller to fill before SealRecord, together with the record's
// offset within buf. The record at offset 0 is the transaction's first, with
// room for the CSN; any later one is a continuation. The extended buffer has
// room for the checksum: SealRecord does not move it.
func ReserveRecord(buf []byte, op byte, table uint32, rid uint64, n int) (out []byte, off int, payload []byte) {
	var hdr [maxRecordHeader]byte
	hdr[0] = op
	if len(buf) > 0 {
		hdr[0] |= markCont
	}
	h := bodyAt(hdr[0])
	h += binary.PutUvarint(hdr[h:], uint64(table))
	h += binary.PutUvarint(hdr[h:], rid)
	h += binary.PutUvarint(hdr[h:], uint64(n))
	off = len(buf)
	buf = append(slices.Grow(buf, h+n+4), hdr[:h]...)
	end := len(buf) + n
	return buf[:end], off, buf[end-n : end : end]
}

// SealRecord closes the record ReserveRecord began at off, whose payload now
// ends buf, with its checksum.
func SealRecord(buf []byte, off int) []byte {
	op := buf[off]
	return binary.LittleEndian.AppendUint32(buf, checksum(op&^markBits, buf[off+bodyAt(op):]))
}

// AppendRecord encodes a record with the given payload onto buf and returns
// the extended buffer plus the record's offset within buf.
func AppendRecord(buf []byte, op byte, table uint32, rid uint64, payload []byte) ([]byte, int) {
	buf, off, room := ReserveRecord(buf, op, table, rid, len(payload))
	copy(room, payload)
	return SealRecord(buf, off), off
}

// PayloadOffset returns where in buf the payload of the record AppendRecord
// has just encoded begins, given the payload's length: the record ends buf,
// and only its checksum follows the payload.
func PayloadOffset(buf []byte, payloadLen int) int {
	return len(buf) - 4 - payloadLen
}

// HeaderLen returns how far into its record the payload of rec begins, given
// the op byte the record is stored with: what a point read returns does not
// say whether the record carries a CSN, the stored op byte's marks do.
func HeaderLen(op byte, rec Record) int {
	return RecordLen(op&markCont == 0, rec.Table, rec.RID, len(rec.Payload)) - len(rec.Payload) - 4
}

// RecordLen returns the length of a record of table's row rid with an n-byte
// payload: its header -- with the CSN when first, the record being its
// transaction's first -- the payload and the checksum.
func RecordLen(first bool, table uint32, rid uint64, n int) int {
	h := bodyAt(markCont)
	if first {
		h = bodyAt(0)
	}
	return h + uvarintLen(uint64(table)) + uvarintLen(rid) + uvarintLen(uint64(n)) + n + 4
}

// uvarintLen is the length of x's uvarint encoding: seven bits a byte.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// StampTxn readies the transaction buffer buf, whose last record begins at
// last, for the log: its CSN goes into the first record and the end mark onto
// the last. It writes no byte a checksum or a payload covers, so commit
// stamps a transaction whose rows readers may already be reading.
func StampTxn(buf []byte, last int, csn uint64) {
	binary.LittleEndian.PutUint64(buf[1:9], csn)
	buf[last] |= markEnd
}

// decodeError is what DecodeRecord rejects bytes with. A scan classifies it
// -- torn tail, live tail or corruption -- where an error of the storage
// underneath is returned as it is.
type decodeError string

func (e decodeError) Error() string { return string(e) }

// errShort rejects bytes that end before the record they begin does.
const errShort decodeError = "wal: short record"

// maxRecordHeader bounds what precedes a record's payload: the op tag, the
// fixed-width CSN, and the table, RID and payload-length uvarints.
const maxRecordHeader = 1 + 8 + binary.MaxVarintLen32 + 2*binary.MaxVarintLen64

// decodeHeader parses what precedes the payload of the record at buf[0:]
// and returns its marks and the payload's position and length.
func decodeHeader(buf []byte) (r Record, mark byte, pos, plen int, err error) {
	if len(buf) < 1 {
		return r, 0, 0, 0, errShort
	}
	r.Op, mark = buf[0]&^markBits, buf[0]&markBits
	switch r.Op {
	case OpInsert, OpUpdate, OpDelete, OpPrepare, OpDecide, OpForget:
	default:
		return r, 0, 0, 0, decodeError(fmt.Sprintf("wal: bad op tag %#x", buf[0]))
	}
	pos = bodyAt(mark)
	if len(buf) < pos {
		return r, 0, 0, 0, errShort
	}
	if pos == 9 {
		r.CSN = binary.LittleEndian.Uint64(buf[1:9])
	}
	var field [3]uint64 // table, RID, payload length
	for i := range field {
		v, n := binary.Uvarint(buf[pos:])
		if n == 0 {
			return r, 0, 0, 0, errShort
		}
		if n < 0 {
			return r, 0, 0, 0, decodeError("wal: bad record header")
		}
		field[i] = v
		pos += n
	}
	// A segment offset is 32 bits: no record is longer, and a length that
	// claims to be must not wrap the arithmetic below.
	if field[0] > math.MaxUint32 || field[2] > math.MaxUint32 {
		return r, 0, 0, 0, decodeError("wal: bad record header")
	}
	r.Table, r.RID = uint32(field[0]), field[1]
	return r, mark, pos, int(field[2]), nil
}

// recordLen returns the encoded length of the record whose header buf
// begins with, which may be more than buf holds.
func recordLen(buf []byte) (int, error) {
	_, _, pos, plen, err := decodeHeader(buf)
	return pos + plen + 4, err
}

// DecodeRecord parses the record at buf[0:] on its own and returns it
// together with its encoded length: op, table, RID and payload, checksum
// verified. A continuation's CSN is its transaction's, which only a scan
// knows: here it is 0. The returned payload aliases buf.
func DecodeRecord(buf []byte) (Record, int, error) {
	r, _, n, err := decode(buf)
	return r, n, err
}

// decode is DecodeRecord, also returning the record's marks.
func decode(buf []byte) (Record, byte, int, error) {
	r, mark, pos, plen, err := decodeHeader(buf)
	if err != nil {
		return Record{}, 0, 0, err
	}
	end := pos + plen
	if end+4 > len(buf) {
		return Record{}, 0, 0, errShort
	}
	r.Payload = buf[pos:end:end]
	want := binary.LittleEndian.Uint32(buf[end : end+4])
	if got := checksum(r.Op, buf[bodyAt(mark):end]); got != want {
		return Record{}, 0, 0, decodeError(fmt.Sprintf("wal: record checksum mismatch (%08x != %08x)", got, want))
	}
	return r, mark, end + 4, nil
}

// errOutOfPlace rejects a record whose marks do not fit where it lies: a
// continuation where a transaction must begin, or a first record inside an
// unfinished transaction. An end mark flipped either way shows as one of the
// two.
const errOutOfPlace decodeError = "wal: record out of place in its transaction"

// segmentHeader is the first byte of every segment PLog, ensuring offset 0
// is never a record address.
const segmentHeader byte = 'S'

// Config configures a Manager.
type Config struct {
	// Service is the SRSS deployment backing the log.
	Service *srss.Service
	// Tier is where log segments are placed. HiEngine commits against
	// TierCompute; the commit-side ablation flips this to TierStorage.
	Tier srss.Tier
	// Streams is the number of independent log streams (paper: one per
	// worker core). Default 4.
	Streams int
	// SegmentSize caps each segment (paper: 128 MiB). Default 8 MiB so
	// tests exercise rotation; benchmarks raise it.
	SegmentSize int64
	// BatchMax bounds the number of commits folded into one group append.
	// Default 64. A value of 1 disables group commit (ablation).
	BatchMax int
	// QueueDepth is the per-stream commit queue length. Default 256.
	QueueDepth int
	// OnMetaChange is invoked when the directory's metadata PLog migrates
	// to a new identity after a seal (node failure); the caller persists
	// the new bootstrap ID (e.g. in its manifest and the management-node
	// registry).
	OnMetaChange func(srss.PLogID) error
	// Obs receives commit-path metrics (latency, batch sizes, rotations).
	// Nil disables recording.
	Obs *obs.Registry
}

func (c *Config) fill() error {
	if c.Service == nil {
		return errors.New("wal: Config.Service is required")
	}
	if c.Streams <= 0 {
		c.Streams = 4
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 8 << 20
	}
	if c.SegmentSize > c.Service.MaxPLogSize() {
		c.SegmentSize = c.Service.MaxPLogSize()
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return nil
}

// Directory maintains the segment-ID -> PLog-ID mapping, persisted in a
// designated metadata PLog (Section 4.2). If the metadata PLog itself is
// sealed by a node failure, the directory migrates: the full mapping is
// rewritten into a fresh PLog and the new identity is reported through
// onMetaChange so the caller can re-anchor its bootstrap reference (the
// "well-known location" of Section 4.2).
type Directory struct {
	svc          *srss.Service
	onMetaChange func(srss.PLogID) error

	mu   sync.RWMutex
	m    map[uint16]srss.PLogID
	meta *srss.PLog

	// metaID mirrors meta.ID() so MetaID never takes d.mu: the manifest
	// migration path reads it from inside an onMetaChange callback that
	// already holds d.mu (same goroutine), and an RLock there would
	// self-deadlock.
	metaID atomic.Pointer[srss.PLogID]
}

func newDirectory(svc *srss.Service, meta *srss.PLog) *Directory {
	d := &Directory{svc: svc, m: make(map[uint16]srss.PLogID), meta: meta}
	id := meta.ID()
	d.metaID.Store(&id)
	return d
}

func encodeMapping(seg uint16, id srss.PLogID) [2 + 24]byte {
	var buf [2 + 24]byte
	binary.LittleEndian.PutUint16(buf[:2], seg)
	copy(buf[2:], id[:])
	return buf
}

// appendMapping writes one record, migrating the metadata PLog on seal.
// Caller holds d.mu.
func (d *Directory) appendMapping(seg uint16, id srss.PLogID) error {
	buf := encodeMapping(seg, id)
	_, err := d.meta.Append(buf[:])
	if err == nil {
		return nil
	}
	if !errors.Is(err, srss.ErrSealed) && !errors.Is(err, srss.ErrFull) {
		return err
	}
	// Migrate: rewrite the whole mapping (it is small -- at most 65536
	// entries) into a fresh PLog on healthy replicas.
	fresh, cerr := d.svc.Create(d.meta.Tier())
	if cerr != nil {
		return cerr
	}
	for s, pid := range d.m {
		b := encodeMapping(s, pid)
		if _, werr := fresh.Append(b[:]); werr != nil {
			return werr
		}
	}
	b := encodeMapping(seg, id)
	if _, werr := fresh.Append(b[:]); werr != nil {
		return werr
	}
	d.meta = fresh
	fid := fresh.ID()
	d.metaID.Store(&fid)
	if d.onMetaChange != nil {
		// The callback may itself migrate (e.g. a sealed manifest) and read
		// MetaID; MetaID is lock-free so this re-entry is safe even though
		// d.mu is still held here.
		if nerr := d.onMetaChange(fid); nerr != nil {
			return nerr
		}
	}
	return nil
}

// record persists and registers one mapping.
func (d *Directory) record(seg uint16, id srss.PLogID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.appendMapping(seg, id); err != nil {
		return err
	}
	d.m[seg] = id
	return nil
}

// drop persists a tombstone mapping for seg and removes it from the map.
func (d *Directory) drop(seg uint16) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Zero PLog ID = tombstone; load() interprets it as a drop.
	if err := d.appendMapping(seg, srss.PLogID{}); err != nil {
		return err
	}
	delete(d.m, seg)
	return nil
}

// Lookup resolves a segment ID to its PLog ID.
func (d *Directory) Lookup(seg uint16) (srss.PLogID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.m[seg]
	return id, ok
}

// Segments returns all registered segment IDs in ascending order.
func (d *Directory) Segments() []uint16 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]uint16, 0, len(d.m))
	for s := range d.m {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// MetaID returns the bootstrap PLog ID holding the directory. It is
// lock-free (atomic mirror of d.meta) because manifest migration can call
// it from inside the onMetaChange callback while d.mu is held.
func (d *Directory) MetaID() srss.PLogID {
	return *d.metaID.Load()
}

// RefreshDirectory re-reads the metadata PLog, picking up segments created
// by another manager (the primary) since the last load. Read-only managers
// call this before catch-up scans.
func (m *Manager) RefreshDirectory() error { return m.dir.load() }

// load rebuilds the mapping from the metadata PLog.
func (d *Directory) load() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	size := d.meta.Size()
	const recLen = 2 + 24
	buf := make([]byte, recLen)
	for off := int64(0); off+recLen <= size; off += recLen {
		if _, err := d.meta.ReadAt(buf, off); err != nil {
			return err
		}
		seg := binary.LittleEndian.Uint16(buf[:2])
		var id srss.PLogID
		copy(id[:], buf[2:])
		if id.IsZero() {
			delete(d.m, seg) // tombstone written by DropSegment
		} else {
			d.m[seg] = id
		}
	}
	return nil
}

// commitReq is one transaction buffer queued for durability, or a marker
// (payload nil): Flush's, or RotateAll's (rotate true), completed once every
// request queued ahead of it on the stream has been.
type commitReq struct {
	payload []byte
	done    func(base Addr, err error)
	rotate  bool
	// enqueuedNS is the wall-clock enqueue time; the I/O goroutine records
	// the commit-to-durable latency against it at completion.
	enqueuedNS int64
	// tr, when non-nil, is the request's trace. The channel send transfers
	// ownership to the I/O goroutine, which attributes enqueue wait, group
	// commit, and replication, then hands it back through done.
	tr *obs.Trace
}

// Stream is one log stream with its own open segment and I/O goroutine.
type Stream struct {
	id  int
	mgr *Manager

	// mu is the enqueue lock: what a request's stamp draws under it (a
	// commit's CSN) is in the order the stream holds its requests. Close
	// takes it to close ch.
	mu sync.Mutex
	ch chan commitReq
	wg sync.WaitGroup

	// I/O-goroutine-owned state.
	seg    uint16
	plog   *srss.PLog
	offset int64
	batch  []commitReq
	concat []byte
	// backoff draws jitter for placement-failure retries; seeded from the
	// chaos engine (or 0) so schedules stay reproducible.
	backoff *chaos.Rand

	// Stats.
	appends      atomic.Int64
	batchedTxns  atomic.Int64
	bytesWritten atomic.Int64
}

// Manager is the log manager.
type Manager struct {
	cfg     Config
	dir     *Directory
	streams []*Stream

	// Metric handles cached at build time; nil-safe no-ops when no
	// registry is configured (see internal/obs).
	mCommitLatency *obs.Histogram // commit-to-durable, nanoseconds
	mBatchTxns     *obs.Histogram // transactions per group append
	mBatchBytes    *obs.Histogram // bytes per group append
	mRotates       *obs.Counter
	mRetries       *obs.Counter // sealed/full appends retried on a fresh segment
	mOversized     *obs.Counter // transactions rejected with ErrTooLarge
	mGiveups       *obs.Counter // appends abandoned after exhausting retries
	mTornTails     *obs.Counter // checksum-invalid tails truncated during scans

	// Torn-tail truncation totals (also mirrored to obs); recovery reports
	// them in its stats. truncSeen dedups the counting: a follower's
	// repeated catch-up scans re-hit the same torn tail every poll, and each
	// distinct truncation must count exactly once.
	tailTruncs     atomic.Int64
	tailTruncBytes atomic.Int64
	truncMu        sync.Mutex
	truncSeen      map[uint16]int64 // segment -> counted truncation offset

	// liveTail marks read-only follower managers: the segment under a scan
	// may still be growing (a live writer, or a log shipper materializing
	// records chunk by chunk), so a decode failure on an unsealed PLog is
	// "end of available log, retry later", never torn-tail truncation and
	// never corruption. Once the PLog seals the strict classification
	// applies again. Atomic because Promote clears it while follower scans
	// may still be classifying tails.
	liveTail atomic.Bool

	nextSeg atomic.Uint32
	// pending is the buffers queued whose completion has not run yet.
	pending atomic.Int64

	mu    sync.RWMutex
	views map[uint16]*srss.View
	// windowReads counts the storage reads of the read paths; see WindowReads.
	windowReads atomic.Int64

	// scanMu fences DropSegment against in-progress scans: a drop marks the
	// segment and waits for its scanRefs to drain before deleting the
	// backing PLog, and later scans of the segment fail with
	// ErrSegmentDropped instead of an unclassified read error.
	scanMu      sync.Mutex
	scanCond    *sync.Cond
	scanRefs    map[uint16]int
	droppedSegs map[uint16]bool

	destageMu sync.Mutex
	destaged  map[uint16]srss.PLogID

	closed atomic.Bool
}

// ErrClosed is returned for operations on a closed manager.
var ErrClosed = errors.New("wal: manager closed")

// ErrTooLarge is returned when one transaction's log exceeds the segment
// size.
var ErrTooLarge = errors.New("wal: transaction log exceeds segment size")

// ErrSegmentsExhausted is returned by an append or a rotation that needs a
// fresh segment when all 65,536 segment ids have been handed out: a 16-bit id
// is what an Addr has room for, and a second segment under a live id would be
// read through every address that points into the first. The log stops there
// (a failed append is fail-stop for its writer); wal.segments_allocated is the
// gauge to watch.
var ErrSegmentsExhausted = errors.New("wal: segment ids exhausted")

// ErrSegmentDropped is returned when a scan targets a segment whose backing
// PLog has been (or is being) dropped -- by this manager's DropSegment, or
// by the primary underneath a read-only follower. A follower treats it as
// "restart from the directory": forget the segment's progress, refresh the
// directory, and continue with the segments that remain.
var ErrSegmentDropped = errors.New("wal: segment dropped")

// Open creates a fresh log with a new metadata PLog.
func Open(cfg Config) (*Manager, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	meta, err := cfg.Service.Create(cfg.Tier)
	if err != nil {
		return nil, err
	}
	dir := newDirectory(cfg.Service, meta)
	dir.onMetaChange = cfg.OnMetaChange
	return build(cfg, dir, 0)
}

// OpenReadOnly attaches to an existing log for reading only: the directory
// is loaded but no streams (and hence no new segments) are created. Used by
// read-only replicas that follow a primary's log (Section 3.1).
func OpenReadOnly(cfg Config, metaID srss.PLogID) (*Manager, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	meta, err := cfg.Service.Open(metaID)
	if err != nil {
		return nil, err
	}
	dir := newDirectory(cfg.Service, meta)
	if err := dir.load(); err != nil {
		return nil, err
	}
	m := &Manager{cfg: cfg, dir: dir, views: make(map[uint16]*srss.View)}
	m.liveTail.Store(true)
	m.mTornTails = cfg.Obs.Counter("wal.torn_tail_truncations")
	return m, nil
}

// Reopen attaches to an existing log via its metadata PLog ID (recovery).
// The returned manager appends new segments after the highest existing one.
// Every segment the dead lineage left unsealed is sealed torn first, exactly
// as Promote does for a shipped log: the new lineage appends only to fresh
// segments, so the old ones can never grow again, and sealing them makes a
// crash-time partial trailing record classify as a truncatable torn tail --
// and, just as important, makes the old segments eligible for checkpoint
// fences and compaction drops. Leaving them unsealed would strand them
// outside every future fence, so a checkpoint could fence a 2PC decision
// logged by the new lineage while the matching prepare stayed scan-visible
// in an old segment forever -- recovery would then resurrect the decided
// transaction as in-doubt (an orphan prepare).
func Reopen(cfg Config, metaID srss.PLogID) (*Manager, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	meta, err := cfg.Service.Open(metaID)
	if err != nil {
		return nil, err
	}
	dir := newDirectory(cfg.Service, meta)
	dir.onMetaChange = cfg.OnMetaChange
	if err := dir.load(); err != nil {
		return nil, err
	}
	next := uint32(0)
	for _, s := range dir.Segments() {
		if uint32(s)+1 > next {
			next = uint32(s) + 1
		}
		id, ok := dir.Lookup(s)
		if !ok {
			continue
		}
		p, err := cfg.Service.Open(id)
		if err != nil {
			return nil, err
		}
		if !p.Sealed() {
			p.SealTorn()
		}
	}
	return build(cfg, dir, next)
}

func build(cfg Config, dir *Directory, nextSeg uint32) (*Manager, error) {
	m := &Manager{cfg: cfg, dir: dir, views: make(map[uint16]*srss.View)}
	m.nextSeg.Store(nextSeg)
	if err := m.startStreams(); err != nil {
		return nil, err
	}
	return m, nil
}

// startStreams caches the write-path metric handles and spins up the
// group-commit streams, each opening a fresh segment. Called at build time
// and again by Promote when a read-only follower manager becomes writable.
func (m *Manager) startStreams() error {
	cfg := m.cfg
	m.mCommitLatency = cfg.Obs.Histogram("wal.commit_latency_ns")
	m.mBatchTxns = cfg.Obs.Histogram("wal.batch_txns")
	m.mBatchBytes = cfg.Obs.Histogram("wal.batch_bytes")
	m.mRotates = cfg.Obs.Counter("wal.rotates")
	m.mRetries = cfg.Obs.Counter("wal.append_retries")
	m.mOversized = cfg.Obs.Counter("wal.oversized_rejects")
	m.mGiveups = cfg.Obs.Counter("wal.append_giveups")
	m.mTornTails = cfg.Obs.Counter("wal.torn_tail_truncations")
	cfg.Obs.GaugeFunc("wal.segments_allocated", func() int64 { return int64(m.nextSeg.Load()) })
	var seed uint64
	if ch := cfg.Service.Chaos(); ch != nil {
		seed = ch.Seed()
	}
	for i := 0; i < cfg.Streams; i++ {
		st := &Stream{id: i, mgr: m, ch: make(chan commitReq, cfg.QueueDepth)}
		st.backoff = chaos.NewRand(seed, fmt.Sprintf("wal.stream.%d.backoff", i))
		if err := st.rotate(); err != nil {
			return err
		}
		st.wg.Add(1)
		go st.ioLoop()
		m.streams = append(m.streams, st)
	}
	return nil
}

// Promote transitions a read-only follower manager into a writable primary
// log. The shipped log's tail is sealed: every segment PLog the dead
// primary left unsealed is sealed torn, so a partially-shipped final record
// classifies as a crash tail (truncate at the last valid record) rather
// than staying a live tail forever. New commits then land in fresh segments
// numbered after the highest shipped one, appended by newly-started group
// commit streams; the mirrored segments are never appended to, so their
// byte-for-byte identity with the dead primary's log is preserved.
// onMetaChange re-anchors the directory's bootstrap reference exactly as on
// a writable open. The caller must have finished (and stopped) all catch-up
// application first.
func (m *Manager) Promote(onMetaChange func(srss.PLogID) error) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if len(m.streams) != 0 {
		return errors.New("wal: manager already writable")
	}
	// Final directory refresh, then seal the shipped tail. Unsealed mirrors
	// are sealed torn: acked-but-unshipped suffixes of the dead primary are
	// crash tails here, and only the torn flag makes a trailing partial
	// record truncate instead of failing scans as corruption (the local
	// mirror's replicas never diverge).
	if err := m.dir.load(); err != nil {
		return err
	}
	next := uint32(0)
	for _, seg := range m.dir.Segments() {
		if uint32(seg)+1 > next {
			next = uint32(seg) + 1
		}
		id, ok := m.dir.Lookup(seg)
		if !ok {
			continue
		}
		p, err := m.cfg.Service.Open(id)
		if err != nil {
			return err
		}
		if !p.Sealed() {
			p.SealTorn()
		}
	}
	if cur := m.nextSeg.Load(); cur > next {
		next = cur
	}
	m.nextSeg.Store(next)
	m.dir.onMetaChange = onMetaChange
	m.cfg.OnMetaChange = onMetaChange
	// Strict tail classification from here on: the log has a writer again.
	m.liveTail.Store(false)
	return m.startStreams()
}

// Directory exposes the segment directory.
func (m *Manager) Directory() *Directory { return m.dir }

// Streams returns the stream count.
func (m *Manager) Streams() int { return len(m.streams) }

// Stream returns stream i.
func (m *Manager) Stream(i int) *Stream { return m.streams[i] }

// ErrReadOnly is returned when appending through a read-only manager.
var ErrReadOnly = errors.New("wal: manager is read-only")

// Append queues a pre-encoded transaction buffer on stream i. done is
// invoked from the I/O goroutine with the base address of the buffer once
// it is durable (or with an error). The payload must be non-nil (a nil one
// is the stream's marker) and must not be reused until done fires.
func (m *Manager) Append(stream int, payload []byte, done func(base Addr, err error)) {
	m.AppendTraced(stream, payload, nil, nil, done)
}

// AppendTraced is Append with an optional trace and stamp. stamp, when
// non-nil, runs under the stream's enqueue lock just before the buffer is
// queued -- and also when the buffer is refused, before done reports why:
// a commit draws its CSN there, so each stream holds its commits in CSN
// order. Enqueue marks the wal_enqueue stage; the I/O goroutine closes it
// when the request joins a group flush. Trace ownership transfers with the
// request: the caller must not touch tr again until done fires (done runs
// on the I/O goroutine with the trace handed back).
func (m *Manager) AppendTraced(stream int, payload []byte, tr *obs.Trace, stamp func(), done func(base Addr, err error)) {
	if err := m.enqueue(stream, commitReq{payload: payload, done: done, tr: tr}, stamp); err != nil {
		done(InvalidAddr, err)
	}
}

// enqueue queues req behind what stream i holds, running stamp first under
// the stream's enqueue lock, and sends under it too (blocking while the queue
// is full): the queue's order is the order the stamps ran in. It fails only
// on a closed or read-only manager.
func (m *Manager) enqueue(i int, req commitReq, stamp func()) error {
	if len(m.streams) == 0 {
		if stamp != nil {
			stamp()
		}
		return ErrReadOnly
	}
	st := m.streams[i%len(m.streams)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if stamp != nil {
		stamp()
	}
	if m.closed.Load() {
		return ErrClosed
	}
	if req.payload != nil {
		m.pending.Add(1)
		req.tr.Begin(obs.StageWALEnqueue)
		req.enqueuedNS = time.Now().UnixNano()
	}
	st.ch <- req
	return nil
}

// complete reports a queued buffer's outcome to its callback.
func (st *Stream) complete(req *commitReq, base Addr, err error) {
	st.mgr.pending.Add(-1)
	if req.done != nil {
		req.done(base, err)
	}
}

// Pending is the buffers queued whose completion has not run yet.
func (m *Manager) Pending() int64 { return m.pending.Load() }

// AppendSync appends and waits for durability.
func (m *Manager) AppendSync(stream int, payload []byte) (Addr, error) {
	type res struct {
		base Addr
		err  error
	}
	ch := make(chan res, 1)
	m.Append(stream, payload, func(base Addr, err error) { ch <- res{base, err} })
	r := <-ch
	return r.base, r.err
}

// Close drains and stops all streams. Pending commits complete first.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		return
	}
	for _, st := range m.streams {
		st.mu.Lock()
		close(st.ch)
		st.mu.Unlock()
		st.wg.Wait()
	}
}

// allocSegment hands out the next segment id, each once.
func (m *Manager) allocSegment() (uint16, error) {
	for {
		n := m.nextSeg.Load()
		if n > math.MaxUint16 {
			return 0, ErrSegmentsExhausted
		}
		if m.nextSeg.CompareAndSwap(n, n+1) {
			return uint16(n), nil
		}
	}
}

// rotate opens a fresh segment (PLog) for the stream. Called by the I/O
// goroutine and during setup.
func (st *Stream) rotate() error {
	seg, err := st.mgr.allocSegment()
	if err != nil {
		return err
	}
	if st.plog != nil {
		st.plog.Seal()
	}
	p, err := st.mgr.cfg.Service.Create(st.mgr.cfg.Tier)
	if err != nil {
		return err
	}
	if _, err := p.Append([]byte{segmentHeader}); err != nil {
		return err
	}
	if err := st.mgr.dir.record(seg, p.ID()); err != nil {
		return err
	}
	st.seg, st.plog, st.offset = seg, p, 1
	st.mgr.mRotates.Inc()
	return nil
}

// ioLoop is the stream's I/O goroutine: drain a batch, append once, notify.
func (st *Stream) ioLoop() {
	defer st.wg.Done()
	for req := range st.ch {
		if req.payload == nil {
			st.mark(req)
			continue
		}
		st.batch = st.batch[:0]
		st.batch = append(st.batch, req)
		for len(st.batch) < st.mgr.cfg.BatchMax {
			select {
			case r, ok := <-st.ch:
				if !ok {
					st.flushBatch()
					return
				}
				if r.payload == nil {
					st.flushBatch()
					st.mark(r)
					goto next
				}
				st.batch = append(st.batch, r)
			default:
				goto drained
			}
		}
	drained:
		st.flushBatch()
	next:
	}
}

// mark completes a marker, everything queued ahead of it having completed.
// A rotation (checkpoint/compaction fencing) skips a stream whose segment is
// still empty -- there is nothing to fence and rotating would litter
// one-byte segments.
func (st *Stream) mark(req commitReq) {
	var err error
	if req.rotate && st.offset > 1 {
		err = st.rotate()
	}
	req.done(InvalidAddr, err)
}

// flushBatch persists the gathered batch as one append (splitting only at
// segment boundaries) and completes each request.
func (st *Stream) flushBatch() {
	if len(st.batch) == 0 {
		return
	}
	segSize := st.mgr.cfg.SegmentSize
	i := 0
	for i < len(st.batch) {
		// Take the largest prefix of requests fitting the open segment.
		j, size := i, int64(0)
		for j < len(st.batch) {
			pl := int64(len(st.batch[j].payload))
			if pl+1 > segSize {
				// Can never fit: fail this request. The done guard
				// matters: an oversized record appended with a nil
				// callback must not panic (and wedge) the I/O goroutine.
				if j == i {
					st.complete(&st.batch[j], InvalidAddr, ErrTooLarge)
					st.mgr.mOversized.Inc()
					i++
					j++
					continue
				}
				break
			}
			if st.offset+size+pl > segSize {
				break
			}
			size += pl
			j++
		}
		if size == 0 {
			// Open segment too full for even one request: rotate.
			if err := st.rotate(); err != nil {
				st.failRest(i, err)
				return
			}
			continue
		}
		// A group is copied together so that it is one append; a request on
		// its own is appended from its own buffer, which is the WAL's until
		// done fires.
		data := st.batch[i].payload
		if j-i > 1 {
			st.concat = st.concat[:0]
			for k := i; k < j; k++ {
				st.concat = append(st.concat, st.batch[k].payload...)
			}
			data = st.concat
		}
		// Traced requests leave the enqueue stage as the group flush picks
		// them up; the flush itself -- including any injected pre-append
		// fault latency, which models a slow storage append -- is the
		// group-commit stage.
		for k := i; k < j; k++ {
			if tr := st.batch[k].tr; tr != nil {
				tr.End(obs.StageWALEnqueue)
				tr.Begin(obs.StageGroupCommit)
			}
		}
		ch := st.mgr.cfg.Service.Chaos()
		if err := ch.Check(SiteFlushBefore); err != nil {
			// Crash before the group append: the whole batch is lost.
			st.failRest(i, err)
			return
		}
		base, replNS, err := st.appendWithRetry(data)
		if err != nil {
			st.failRest(i, err)
			return
		}
		if err := ch.Check(SiteFlushAfter); err != nil {
			// Crash after the append: the batch is durable (recovery will
			// replay it) but no commit is ever acknowledged.
			st.failRest(i, err)
			return
		}
		// Counted before any callback runs: a caller that waited for its
		// commit and then reads Stats must find its own batch there.
		st.appends.Add(1)
		st.batchedTxns.Add(int64(j - i))
		st.bytesWritten.Add(size)
		off := uint32(base)
		durableNS := time.Now().UnixNano()
		for k := i; k < j; k++ {
			if tr := st.batch[k].tr; tr != nil {
				// Carve the replication fan-out (shared by the whole batch)
				// out of this trace's group-commit span, then open the
				// durable stage: it closes when the commit callback runs.
				now := tr.Since()
				tr.End(obs.StageGroupCommit)
				tr.Adjust(obs.StageGroupCommit, -replNS)
				tr.AddSpan(obs.StageSRSSReplicate, now-replNS, replNS)
				tr.SetBatch(j - i)
				tr.Begin(obs.StageDurable)
			}
			// Recorded, like the stats above, before the callback that lets
			// the committer go and look.
			st.mgr.mCommitLatency.Record(durableNS - st.batch[k].enqueuedNS)
			st.complete(&st.batch[k], MakeAddr(st.seg, off), nil)
			off += uint32(len(st.batch[k].payload))
		}
		st.mgr.mBatchTxns.Record(int64(j - i))
		st.mgr.mBatchBytes.Record(size)
		i = j
	}
}

// maxAppendAttempts bounds appendWithRetry. Each failed attempt backs off
// with seeded jitter, so a transient no-healthy-nodes window (nodes failing
// and healing, or repair racing placement) can clear; if the outage
// persists the stream gives up with a wrapped srss.ErrNoHealthyNodes that
// the engine's fail-stop path latches.
const maxAppendAttempts = 8

// appendWithRetry appends data to the open segment, transparently retrying
// on a sealed PLog (node failure) by rotating to a fresh segment, per the
// SRSS contract. Retries are bounded: after maxAppendAttempts the append
// fails with an error wrapping srss.ErrNoHealthyNodes rather than looping
// while the whole tier is down.
func (st *Stream) appendWithRetry(data []byte) (off, replicateNS int64, err error) {
	var lastErr error
	for attempt := 1; attempt <= maxAppendAttempts; attempt++ {
		off, replNS, err := st.plog.AppendTimed(data)
		if err == nil {
			st.offset = off + int64(len(data))
			return off, replNS, nil
		}
		if errors.Is(err, chaos.ErrCrashed) {
			// Simulated crash: the process is dead, retrying is meaningless.
			return 0, 0, err
		}
		if !errors.Is(err, srss.ErrSealed) && !errors.Is(err, srss.ErrFull) {
			return 0, 0, err
		}
		st.mgr.mRetries.Inc()
		rerr := st.rotate()
		if rerr == nil {
			continue
		}
		if errors.Is(rerr, chaos.ErrCrashed) {
			return 0, 0, rerr
		}
		if !errors.Is(rerr, srss.ErrNoHealthyNodes) {
			return 0, 0, rerr
		}
		// Transient placement failure: back off with seeded jitter before
		// retrying (a node may heal or repair may free a spare).
		lastErr = rerr
		d := time.Duration(attempt)*50*time.Microsecond +
			time.Duration(st.backoff.Intn(150))*time.Microsecond
		time.Sleep(d)
	}
	st.mgr.mGiveups.Inc()
	if lastErr == nil {
		// Every rotation succeeded but every append hit a freshly failed
		// node: the tier is effectively unavailable.
		lastErr = srss.ErrNoHealthyNodes
	}
	return 0, 0, fmt.Errorf("wal: stream %d gave up after %d append attempts: %w",
		st.id, maxAppendAttempts, lastErr)
}

func (st *Stream) failRest(from int, err error) {
	for k := from; k < len(st.batch); k++ {
		st.complete(&st.batch[k], InvalidAddr, err)
	}
}

// Stats reports a stream's activity.
func (st *Stream) Stats() (appends, txns, bytes int64) {
	return st.appends.Load(), st.batchedTxns.Load(), st.bytesWritten.Load()
}

// view returns (and caches) an mmap view of a segment.
func (m *Manager) view(seg uint16) (*srss.View, error) {
	m.mu.RLock()
	v, ok := m.views[seg]
	m.mu.RUnlock()
	if ok {
		return v, nil
	}
	id, ok := m.dir.Lookup(seg)
	if !ok {
		return nil, fmt.Errorf("wal: unknown segment %d", seg)
	}
	p, err := m.cfg.Service.Open(id)
	if err != nil {
		return nil, err
	}
	v = p.Mmap()
	m.mu.Lock()
	m.views[seg] = v
	m.mu.Unlock()
	return v, nil
}

// window is a sequential reader's place in one segment: the bytes from off
// to the end of the SRSS chunk that holds off, zero-copy. Records are
// decoded where they lie, so a pass over a chunk's ~1,700 rows costs the
// storage one read.
type window struct {
	m   *Manager
	v   *srss.View
	off int64
	b   []byte
}

// record decodes the record at offset off of the segment and returns it with
// its marks and length. The payload aliases storage-backed memory. An error
// is a decodeError when the bytes are there and do not parse, else the
// storage's.
func (w *window) record(off int64) (Record, byte, int, error) {
	if off < w.off || off >= w.off+int64(len(w.b)) {
		b, err := w.v.Window(off)
		if err != nil {
			return Record{}, 0, 0, err
		}
		w.m.windowReads.Add(1)
		w.off, w.b = off, b
	}
	b := w.b[off-w.off:]
	rec, mark, n, err := decode(b)
	if err != errShort {
		return rec, mark, n, err
	}
	// The record runs past the window. Unless that is the end of the
	// segment, the rest of it is in the next chunk: size the record from its
	// header -- read on its own first, if the boundary cuts the header too
	// -- and take that one range, which the view copies together.
	rem := w.v.Len() - off
	if int64(len(b)) >= rem {
		return Record{}, 0, 0, errShort
	}
	if n, err = recordLen(b); err == errShort {
		w.m.windowReads.Add(1)
		if b, err = w.v.At(off, int(min(maxRecordHeader, rem))); err != nil {
			return Record{}, 0, 0, err
		}
		n, err = recordLen(b)
	}
	if err == nil && int64(n) > rem {
		err = errShort // the segment ends inside the record
	}
	if err != nil {
		return Record{}, 0, 0, err
	}
	w.m.windowReads.Add(1)
	if b, err = w.v.At(off, n); err != nil {
		return Record{}, 0, 0, err
	}
	return decode(b)
}

// ReadRecord materializes the log record at addr through the segment's mmap
// view. This is the path that serves reads of evicted versions (Section
// 4.2): the returned payload references storage-backed memory. The record is
// read once and decoded once, whatever its size, and on its own, as
// DecodeRecord decodes it.
func (m *Manager) ReadRecord(addr Addr) (Record, error) {
	v, err := m.view(addr.Segment())
	if err != nil {
		return Record{}, err
	}
	w := window{m: m, v: v}
	rec, _, _, err := w.record(int64(addr.Offset()))
	return rec, err
}

// Reader is ReadRecord for a caller that reads many records: it keeps the
// last window of every segment it has read from, so records read in log
// order -- or in the order of several interleaved streams, as a table's rows
// are in RID order -- share a storage read per chunk. Not for concurrent
// use; each goroutine takes its own.
type Reader struct {
	m    *Manager
	wins map[uint16]*window
}

// NewReader returns a Reader on m's log.
func (m *Manager) NewReader() *Reader {
	return &Reader{m: m, wins: make(map[uint16]*window)}
}

// ReadRecord is Manager.ReadRecord through the reader's windows.
func (r *Reader) ReadRecord(addr Addr) (Record, error) {
	w := r.wins[addr.Segment()]
	if w == nil {
		v, err := r.m.view(addr.Segment())
		if err != nil {
			return Record{}, err
		}
		w = &window{m: r.m, v: v}
		r.wins[addr.Segment()] = w
	}
	rec, _, _, err := w.record(int64(addr.Offset()))
	return rec, err
}

// Appended returns the log's own bytes from addr to the end of the storage
// chunk that holds it, zero-copy, or nil when addr is not in the durable log.
// It is for the writer, about what it has appended (a done callback's base
// address onward): srss.PLog.Appended, so not a storage read and not counted
// in WindowReads. A record that ends inside the returned bytes can serve as
// its own in-memory copy; one that runs past them straddles a chunk.
func (m *Manager) Appended(addr Addr) []byte {
	v, err := m.view(addr.Segment())
	if err != nil {
		return nil
	}
	return v.PLog().Appended(int64(addr.Offset()))
}

// WindowReads counts the storage reads the log's read paths (ReadRecord,
// Reader, scans) have issued: one per chunk window, and one or two more for
// a record that straddles a chunk boundary.
func (m *Manager) WindowReads() int64 { return m.windowReads.Load() }

// ScanSegment iterates the records of one segment's whole transactions in
// append order, calling fn with each record's permanent address and its
// transaction's CSN.
func (m *Manager) ScanSegment(seg uint16, fn func(addr Addr, rec Record) bool) error {
	_, err := m.ScanSegmentFrom(seg, 0, func(txn []Entry) bool {
		for _, r := range txn {
			if !fn(r.Addr, r.Record) {
				return false
			}
		}
		return true
	})
	return err
}

// Entry is a record as a scan delivers it: its permanent address, and the
// record with its transaction's CSN.
type Entry struct {
	Addr Addr
	Record
}

// ScanSegmentFrom scans a segment a transaction at a time, starting at byte
// offset from (0 = the beginning). It decodes a transaction's records up to
// the one marked its end before fn sees any of them, then hands fn all of
// them, each with the first record's CSN; the slice is the scan's, reused for
// the next transaction. A transaction the segment holds only part of -- a
// torn tail, or one still being appended or shipped -- is not delivered at
// all. The scan returns where it stopped, which a follower passes back on its
// next catch-up scan: always a transaction's first record, the one fn
// declined or the one after the last delivered. Replay threads run one scan
// per segment in parallel (Section 4.3). The scan is sequential -- the
// cheapest access pattern on log-structured storage -- and copies nothing:
// records are decoded in the chunk windows of the segment's view.
func (m *Manager) ScanSegmentFrom(seg uint16, from int64, fn func(txn []Entry) bool) (int64, error) {
	if err := m.beginScan(seg); err != nil {
		return from, err
	}
	defer m.endScan(seg)
	v, err := m.view(seg)
	if err != nil {
		return from, m.mapSegErr(seg, err)
	}
	size := v.Len()
	if size == 0 || from >= size {
		return from, nil
	}
	w := window{m: m, v: v}
	if from == 0 {
		from = 1 // skip the segment header byte
		h, err := v.At(0, 1)
		if err != nil {
			return 0, m.mapSegErr(seg, err)
		}
		if h[0] != segmentHeader {
			return 0, fmt.Errorf("wal: segment %d missing header", seg)
		}
	}
	var txn []Entry
	for pos := from; pos < size; {
		var at int64
		txn, at, err = w.readTxn(seg, pos, size, txn[:0])
		if err != nil {
			if !errors.As(err, new(decodeError)) {
				return pos, m.mapSegErr(seg, err)
			}
			switch m.classifyTail(v.PLog(), at) {
			case tailTorn:
				// Torn tail: the writer died mid-replication, leaving a
				// partially materialized final transaction. Truncate the
				// scan at its first record; the bytes past pos were never
				// acked to any committer, so dropping them is correct.
				m.countTailTrunc(seg, pos, size)
				return pos, nil
			case tailLive:
				// End of the currently-available log: the transaction at pos
				// is still being appended (or shipped). Not torn, not
				// corrupt -- the follower retries from pos on its next poll.
				return pos, nil
			}
			return pos, fmt.Errorf("wal: segment %d at %d: %w", seg, at, err)
		}
		if !fn(txn) {
			return pos, nil
		}
		pos = at
	}
	return size, nil
}

// readTxn appends to txn the records of the transaction whose first record is
// at pos, up to its end mark, and returns it with the offset past it. On an
// error the offset is where the transaction stopped decoding: at a record that
// does not decode or is out of place, or at the segment's end.
func (w *window) readTxn(seg uint16, pos, size int64, txn []Entry) ([]Entry, int64, error) {
	for at := pos; at < size; {
		rec, mark, n, err := w.record(at)
		if err == nil && (mark&markCont != 0) != (at > pos) {
			err = errOutOfPlace
		}
		if err != nil {
			return txn, at, err
		}
		if at > pos {
			rec.CSN = txn[0].CSN
		}
		txn = append(txn, Entry{MakeAddr(seg, uint32(at)), rec})
		at += int64(n)
		if mark&markEnd != 0 {
			return txn, at, nil
		}
	}
	return txn, size, errShort // the segment ends inside the transaction
}

type tailClass int

const (
	tailCorrupt tailClass = iota // genuine corruption: fail the scan
	tailTorn                     // crash-time torn write: truncate here
	tailLive                     // in-flight append: retry later
)

// classifyTail classifies a decode failure at absolute offset abs of segment
// PLog p. A tail is torn when the PLog recorded a torn write, or when it is
// sealed with replicas disagreeing from abs onward -- divergent replica
// suffixes on a sealed PLog can only be left by a writer dying
// mid-replication, because acknowledged appends are replica-identical by
// construction. On an UNSEALED PLog the same divergence is expected in
// steady state: a live reader can observe a record mid-replication, so the
// tail is merely incomplete and the scan must retry later rather than
// "truncate" bytes that are about to become durable. Follower managers
// (liveTail) extend the retry classification to every unsealed tail, since
// log shipping materializes records chunk by chunk with all local replicas
// consistent; once the shipped PLog seals, the strict rules resume.
func (m *Manager) classifyTail(p *srss.PLog, abs int64) tailClass {
	if p == nil {
		return tailCorrupt
	}
	if p.Torn() {
		return tailTorn
	}
	if !p.Sealed() {
		if m.liveTail.Load() || !p.ReplicasConsistentFrom(abs) {
			return tailLive
		}
		return tailCorrupt
	}
	if !p.ReplicasConsistentFrom(abs) {
		return tailTorn
	}
	return tailCorrupt
}

// countTailTrunc records one torn-tail truncation at (seg, abs), exactly
// once: repeated catch-up scans re-hit the same truncation every poll and
// must not re-increment the counters the torture harness asserts on.
func (m *Manager) countTailTrunc(seg uint16, abs, size int64) {
	m.truncMu.Lock()
	if prev, ok := m.truncSeen[seg]; ok && prev == abs {
		m.truncMu.Unlock()
		return
	}
	if m.truncSeen == nil {
		m.truncSeen = make(map[uint16]int64)
	}
	m.truncSeen[seg] = abs
	m.truncMu.Unlock()
	m.mTornTails.Inc()
	m.tailTruncs.Add(1)
	m.tailTruncBytes.Add(size - abs)
}

// beginScan takes a scan reference on seg, failing fast if the segment has
// been dropped. endScan releases it and wakes any fenced DropSegment.
func (m *Manager) beginScan(seg uint16) error {
	m.scanMu.Lock()
	defer m.scanMu.Unlock()
	if m.droppedSegs[seg] {
		return fmt.Errorf("wal: segment %d: %w", seg, ErrSegmentDropped)
	}
	if m.scanRefs == nil {
		m.scanRefs = make(map[uint16]int)
	}
	m.scanRefs[seg]++
	return nil
}

func (m *Manager) endScan(seg uint16) {
	m.scanMu.Lock()
	m.scanRefs[seg]--
	if m.scanRefs[seg] <= 0 {
		delete(m.scanRefs, seg)
		if m.scanCond != nil {
			m.scanCond.Broadcast()
		}
	}
	m.scanMu.Unlock()
}

// mapSegErr converts "the PLog vanished underneath us" storage errors into
// the typed ErrSegmentDropped a follower knows how to handle, and drops the
// stale cached view so a later directory refresh starts clean.
func (m *Manager) mapSegErr(seg uint16, err error) error {
	if errors.Is(err, srss.ErrDeleted) || errors.Is(err, srss.ErrNotFound) {
		m.mu.Lock()
		delete(m.views, seg)
		m.mu.Unlock()
		return fmt.Errorf("wal: segment %d: %w", seg, ErrSegmentDropped)
	}
	return err
}

// TailTruncations reports how many checksum-invalid segment tails scans have
// truncated, and how many bytes were dropped.
func (m *Manager) TailTruncations() (count, bytes int64) {
	return m.tailTruncs.Load(), m.tailTruncBytes.Load()
}

// RotateAll forces every stream onto a fresh segment and returns once all
// rotations are complete. Log compaction calls this to fence the "old"
// segment set: all subsequent commits land in new segments (Section 4.4).
func (m *Manager) RotateAll() error { return m.markAll(true) }

// Flush returns once every buffer queued on any stream before the call has
// been appended and its completion has run. A stamp runs under its stream's
// enqueue lock, so Flush also waits for every stamp that began before it.
func (m *Manager) Flush() error { return m.markAll(false) }

// markAll queues a marker behind what each stream holds and waits for them.
func (m *Manager) markAll(rotate bool) error {
	ch := make(chan error, len(m.streams))
	done := func(_ Addr, err error) { ch <- err }
	for i := range m.streams {
		if err := m.enqueue(i, commitReq{rotate: rotate, done: done}, nil); err != nil {
			return err
		}
	}
	var first error
	for range m.streams {
		if err := <-ch; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DropSegment removes a segment from the directory (persisting a tombstone
// mapping) and deletes its backing PLog, reclaiming its storage. The caller
// guarantees no live record address still points into the segment. The drop
// is fenced against in-progress scans: it marks the segment dropped (so new
// scans fail with ErrSegmentDropped) and waits for current scan references
// to drain before deleting the backing PLog.
func (m *Manager) DropSegment(seg uint16) error {
	id, ok := m.dir.Lookup(seg)
	if !ok {
		return fmt.Errorf("wal: unknown segment %d", seg)
	}
	m.scanMu.Lock()
	if m.droppedSegs == nil {
		m.droppedSegs = make(map[uint16]bool)
	}
	if m.droppedSegs[seg] {
		m.scanMu.Unlock()
		return fmt.Errorf("wal: segment %d: %w", seg, ErrSegmentDropped)
	}
	m.droppedSegs[seg] = true
	if m.scanCond == nil {
		m.scanCond = sync.NewCond(&m.scanMu)
	}
	for m.scanRefs[seg] > 0 {
		m.scanCond.Wait()
	}
	m.scanMu.Unlock()
	if err := m.dir.drop(seg); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.views, seg)
	m.mu.Unlock()
	return m.cfg.Service.Delete(id)
}

// Segments lists all segment IDs known to the directory.
func (m *Manager) Segments() []uint16 { return m.dir.Segments() }

// SealedSegments lists segments whose PLogs are sealed: they can never
// receive another record, so a checkpoint taken after RotateAll may fence
// them for recovery.
func (m *Manager) SealedSegments() []uint16 {
	var out []uint16
	for _, seg := range m.dir.Segments() {
		id, ok := m.dir.Lookup(seg)
		if !ok {
			continue
		}
		p, err := m.cfg.Service.Open(id)
		if err != nil || !p.Sealed() {
			continue
		}
		out = append(out, seg)
	}
	return out
}

// DestageSealed copies every sealed, not-yet-destaged segment to the
// storage tier (Section 3.1: the log is flushed to the storage layer in the
// background for archival and cross-AZ reliability; reads keep being served
// from the compute side). Returns the number of segments destaged. Safe to
// call periodically.
func (m *Manager) DestageSealed() (int, error) {
	if m.cfg.Tier != srss.TierCompute {
		return 0, nil // already storage-resident
	}
	n := 0
	for _, seg := range m.dir.Segments() {
		m.destageMu.Lock()
		_, done := m.destaged[seg]
		m.destageMu.Unlock()
		if done {
			continue
		}
		id, ok := m.dir.Lookup(seg)
		if !ok {
			continue
		}
		p, err := m.cfg.Service.Open(id)
		if err != nil {
			continue // dropped concurrently
		}
		if !p.Sealed() {
			continue // still the open segment of some stream
		}
		archive, err := m.cfg.Service.Destage(p)
		if err != nil {
			return n, err
		}
		m.destageMu.Lock()
		if m.destaged == nil {
			m.destaged = make(map[uint16]srss.PLogID)
		}
		m.destaged[seg] = archive.ID()
		m.destageMu.Unlock()
		n++
	}
	return n, nil
}

// TotalBytes sums bytes written across streams.
func (m *Manager) TotalBytes() int64 {
	var n int64
	for _, st := range m.streams {
		n += st.bytesWritten.Load()
	}
	return n
}
