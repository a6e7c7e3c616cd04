package core

import (
	"sync/atomic"
	"unsafe"

	"hiengine/internal/wal"
)

// tidFlag marks a timestamp word as a transaction ID rather than a CSN
// (Section 5.1: uncommitted versions carry their creator's TID in tmin so
// readers can skip or speculate on them).
const tidFlag uint64 = 1 << 63

func isTID(ts uint64) bool { return ts&tidFlag != 0 }

// Version is one record version, chained new-to-old from the record's PIA
// entry (Section 4). All mutable fields are atomics: versions are read
// lock-free by any transaction. It is 48 bytes, the allocator's 48-byte
// class: a version's end is the start of the one above it in the chain
// (tmin of next-newer), so it keeps no tmax, and its payload is a pointer and
// a length, not a slice header.
type Version struct {
	// tmin is the creating transaction: TID (flagged) while uncommitted,
	// then the creator's CSN.
	tmin atomic.Uint64
	// next points to the previous (older) version.
	next atomic.Pointer[Version]
	// addr is the version's permanent address in the log, set when the
	// creating transaction's log records become durable. A version with
	// addr 0 exists only in memory (not yet durable).
	addr atomic.Uint64
	// data is the first byte of the full row payload (Section 4.2: updates
	// write complete record contents), n bytes long: the record's payload
	// where it lies in the creating transaction's log buffer until the
	// version's log record is durable, the record's own bytes in the log from
	// then on (setData). It may be evicted (set to nil) for durable
	// versions; readers then reload it through the log's mmap view using
	// addr. Every payload a version is given is the same row, so n is set
	// once, before data is first published -- by a checkpoint stub, from the
	// image.
	data atomic.Pointer[byte]
	n    atomic.Uint32
	// flags holds the version's flag bits (flagPriv, flagCSN, flagDead,
	// flagImage).
	flags atomic.Uint32
	// tomb marks delete markers (immutable after creation).
	tomb bool
}

// Version flag bits.
const (
	// flagPriv says data is still the bytes the version was built around,
	// beside the log's: the transaction's buffer, or a payload of its own.
	// Whoever clears it (release) takes those bytes off the engine's ledger
	// of them (core.payload_private_bytes): the swing onto the log, an
	// eviction, GC.
	flagPriv uint32 = 1 << iota
	// flagCSN says the version's record is its transaction's first, the one
	// that carries the CSN: eight bytes longer than a continuation (logLen).
	flagCSN
	// flagDead says GC has put the record's bytes on the dead-log ledger:
	// once, whichever prune reaches the version first.
	flagDead
	// flagImage says the version is a stub recovery made from a checkpoint
	// image entry, and indexed by the entry's keys.
	flagImage
)

// newVersion builds a version around a payload (nil for a delete marker):
// the version itself is its only allocation. first says its record is its
// transaction's first.
func newVersion(tid uint64, payload []byte, next *Version, first bool) *Version {
	v := &Version{tomb: payload == nil}
	v.tmin.Store(tid)
	var f uint32
	if payload != nil {
		v.setData(payload)
		f = flagPriv
	}
	if first {
		f |= flagCSN
	}
	v.flags.Store(f)
	v.next.Store(next)
	return v
}

// setFlag sets f and reports whether this call set it.
func (v *Version) setFlag(f uint32) bool {
	for {
		old := v.flags.Load()
		if old&f != 0 {
			return false
		}
		if v.flags.CompareAndSwap(old, old|f) {
			return true
		}
	}
}

// logLen is the length of v's log record, v being a version of table's row
// rid: what the log holds for it, and frees when GC prunes it.
func (v *Version) logLen(table uint32, rid RID) int64 {
	return int64(wal.RecordLen(v.flags.Load()&flagCSN != 0, table, uint64(rid), int(v.n.Load())))
}

// setData makes b, the row's bytes, v's payload: a pre-durable write's in its
// transaction's buffer, the record's in the durable log (a reload, the
// replay, the swing at durability, compaction), or a private copy. The
// length is stored first, so a reader that sees the pointer sees its length;
// a reader that loaded the previous payload goes on reading the same
// immutable bytes.
func (v *Version) setData(b []byte) {
	v.n.Store(uint32(len(b)))
	v.data.Store(unsafe.SliceData(b))
}

// resident returns v's payload and true when it is in memory; false when it
// is evicted, not loaded yet, or v is a delete marker.
func (v *Version) resident() ([]byte, bool) {
	p := v.data.Load()
	if p == nil {
		return nil, false
	}
	return unsafe.Slice(p, v.n.Load()), true
}

// private reports whether v's payload is still off the log (flagPriv).
func (v *Version) private() bool { return v.flags.Load()&flagPriv != 0 }

// release clears flagPriv and reports whether this call cleared it.
func (v *Version) release() bool {
	for {
		old := v.flags.Load()
		if old&flagPriv == 0 {
			return false
		}
		if v.flags.CompareAndSwap(old, old&^flagPriv) {
			return true
		}
	}
}

// Addr returns the version's permanent log address (0 if not yet durable).
func (v *Version) Addr() wal.Addr { return wal.Addr(v.addr.Load()) }

// CSN returns the creation CSN, or 0 while uncommitted.
func (v *Version) CSN() uint64 {
	ts := v.tmin.Load()
	if isTID(ts) {
		return 0
	}
	return ts
}

// Next returns the next older version.
func (v *Version) Next() *Version { return v.next.Load() }

// payload returns the row bytes, reloading evicted data from the log
// through the engine's mmap read path (the partial-memory story of Section
// 4.2). Loaded data is cached back into the version.
func (v *Version) payload(e *Engine) ([]byte, error) {
	if p, ok := v.resident(); ok {
		return p, nil
	}
	if v.tomb {
		return nil, nil
	}
	return v.reload(e.log)
}

// recordReader is the log's point read: a wal.Manager, or a wal.Reader that
// shares a storage read among the records of a chunk.
type recordReader interface {
	ReadRecord(wal.Addr) (wal.Record, error)
}

// reload reads v's evicted payload back from the log and caches it in the
// version. The payload aliases storage-backed memory: the log's bytes are
// the row.
func (v *Version) reload(log recordReader) ([]byte, error) {
	rec, err := log.ReadRecord(wal.Addr(v.addr.Load()))
	if err != nil {
		return nil, err
	}
	v.setData(rec.Payload)
	return rec.Payload, nil
}

// logWindow is a writer's place in the log it has appended: the bytes from
// at to the end of their storage chunk (wal.Manager.Appended). Consecutive
// records -- a write set's, a compaction's rewrites -- resolve their segment
// once per window, not once each.
type logWindow struct {
	log *wal.Manager
	at  wal.Addr
	b   []byte
}

// bytes returns the n durable bytes at addr, zero-copy, or nil when they
// straddle a chunk boundary (or addr is not in the durable log).
func (w *logWindow) bytes(addr wal.Addr, n int) []byte {
	off := int(addr.Offset()) - int(w.at.Offset())
	if addr.Segment() != w.at.Segment() || off < 0 || off+n > len(w.b) {
		w.at, w.b, off = addr, w.log.Appended(addr), 0
		if n > len(w.b) {
			return nil
		}
	}
	return w.b[off : off+n : off+n]
}

// swing points v's payload at the n bytes at addr in the durable log -- the
// payload of v's record there. It reports false, with v untouched, when no
// single chunk holds those bytes, and otherwise how many bytes of private
// payload v let go of.
func (v *Version) swing(win *logWindow, addr wal.Addr, n int) (released int, ok bool) {
	b := win.bytes(addr, n)
	if b == nil {
		return 0, false
	}
	v.setData(b)
	if v.release() {
		released = n
	}
	return released, true
}

// txn status words, packed as state<<62 | csn.
const (
	txActive uint64 = iota
	txPrecommitted
	txCommitted
	txAborted
)

const (
	statusShift = 62
	csnMask     = 1<<statusShift - 1
)

func packStatus(state, csn uint64) uint64 { return state<<statusShift | csn&csnMask }
func statusState(w uint64) uint64         { return w >> statusShift }
func statusCSN(w uint64) uint64           { return w & csnMask }
