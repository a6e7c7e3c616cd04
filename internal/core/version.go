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
// lock-free by any transaction. It is 32 bytes, the allocator's 32-byte
// class: a version's end is the start of the one above it in the chain
// (tmin of next-newer), so it keeps no tmax; its payload is one pointer to
// bytes that carry their own length; and its flags ride in the spare bits of
// its address.
type Version struct {
	// tmin is the creating transaction: TID (flagged) while uncommitted,
	// then the creator's CSN.
	tmin atomic.Uint64
	// next points to the previous (older) version.
	next atomic.Pointer[Version]
	// word is the version's permanent address in the log (wal.Addr, bits
	// [0,32) and [48,64)), set when the creating transaction's log records
	// become durable and moved by compaction, and its flag bits in [32,38),
	// which wal.Addr leaves unused. A version with address 0 exists only in
	// memory (not yet durable). Every store keeps the bits it does not own
	// (setAddr, setFlag, clearFlag).
	word atomic.Uint64
	// data is the version's row framed as its log record frames it: the
	// payload-length uvarint, then the full row (Section 4.2: updates write
	// complete record contents) -- where it lies in the creating
	// transaction's log buffer until the version's log record is durable, the
	// record's own bytes in the log from then on, or a private copy (setData).
	// It may be evicted (set to nil) for durable versions; readers then
	// reload it through the log's mmap view using the address. A checkpoint
	// stub's stays nil until its row is first read.
	data atomic.Pointer[byte]
}

// Version flag bits, in word's bits [32,38); [38,48) stay free for wider
// segment IDs.
const (
	// flagTomb marks a delete marker (set at creation, never changed).
	flagTomb uint64 = 1 << (32 + iota)
	// flagPriv says data is still the bytes the version was built around,
	// beside the log's: the transaction's buffer, or a payload of its own.
	// Whoever clears it (clearFlag) takes those bytes off the engine's ledger
	// of them (core.payload_private_bytes): the swing onto the log, an
	// eviction, GC.
	flagPriv
	// flagCSN says the version's record is its transaction's first, the one
	// the log charges its transaction's CSN trailer to (logBytes). A record
	// inside a 2PC prepare's payload is none: the prepared buffer has no
	// trailer.
	flagCSN
	// flagDead says GC has put the record's bytes on the dead-log ledger:
	// once, whichever prune reaches the version first.
	flagDead
	// flagImage says the version is a stub recovery made from a checkpoint
	// image entry, and indexed by the entry's keys.
	flagImage
	// flagKeysChanged says the write that superseded the version dropped one
	// of its index keys (writeEntry.keysChanged): whichever prune unlinks the
	// version takes those entries out.
	flagKeysChanged

	flagBits = 1<<38 - 1<<32
)

// newVersion builds a version around frame, its framed row (nil for a delete
// marker): the version itself is its only allocation. first says its record
// is its transaction's first.
func newVersion(tid uint64, frame []byte, next *Version, first bool) *Version {
	v := &Version{}
	v.tmin.Store(tid)
	f := flagTomb
	if frame != nil {
		v.setData(frame)
		f = flagPriv
	}
	if first {
		f |= flagCSN
	}
	v.word.Store(f)
	v.next.Store(next)
	return v
}

// has reports whether flag f is set.
func (v *Version) has(f uint64) bool { return v.word.Load()&f != 0 }

// tomb reports whether v is a delete marker.
func (v *Version) tomb() bool { return v.has(flagTomb) }

// setFlag sets f and reports whether this call set it.
func (v *Version) setFlag(f uint64) bool {
	for {
		old := v.word.Load()
		if old&f != 0 {
			return false
		}
		if v.word.CompareAndSwap(old, old|f) {
			return true
		}
	}
}

// clearFlag clears f and reports whether this call cleared it.
func (v *Version) clearFlag(f uint64) bool {
	for {
		old := v.word.Load()
		if old&f == 0 {
			return false
		}
		if v.word.CompareAndSwap(old, old&^f) {
			return true
		}
	}
}

// setAddr moves v to its record at addr, setting flags f with it. The flags
// already set stay: GC may set flagDead while compaction moves the record.
func (v *Version) setAddr(addr wal.Addr, f uint64) {
	for {
		old := v.word.Load()
		if v.word.CompareAndSwap(old, old&flagBits|f|uint64(addr)) {
			return
		}
	}
}

// Addr returns the version's permanent log address (0 if not yet durable).
func (v *Version) Addr() wal.Addr { return wal.Addr(v.word.Load() &^ flagBits) }

// logLen is the length of v's log record, v being a version of table's row
// rid, with its transaction's CSN trailer when v's record is the first
// (flagCSN): what the log holds for it, and frees when GC prunes it. A
// version whose row is not in memory -- an evicted one, a stub no read has
// loaded -- reads its record from the log; 0 when that fails. The trailer is
// charged at v's CSN, which is the logged one except for a row ImportRow
// loaded, whose CSN 1 is at most as long.
func (v *Version) logLen(log recordReader, table uint32, rid RID) int64 {
	p, ok := v.resident()
	if !ok && !v.tomb() {
		rec, err := log.ReadRecord(v.Addr())
		if err != nil {
			return 0
		}
		p = rec.Payload
	}
	return int64(logBytes(v.has(flagCSN), table, rid, len(p), v.tmin.Load()))
}

// logBytes is what the log holds for a record of table's row rid with an
// n-byte payload, committed at csn: the record, and when first, the record
// being its transaction's first, the CSN trailer its transaction ends with.
// Charged so, a transaction's records sum to its bytes in the log.
func logBytes(first bool, table uint32, rid RID, n int, csn uint64) int {
	l := wal.RecordLen(table, uint64(rid), n)
	if first {
		l += wal.TrailerLen(csn)
	}
	return l
}

// setData makes frame, the row's bytes behind their length, v's payload: a
// pre-durable write's in its transaction's buffer, the record's in the
// durable log (a reload, the replay, the swing at durability, compaction), or
// a private copy. A reader that loaded the previous payload goes on reading
// the same immutable bytes.
func (v *Version) setData(frame []byte) { v.data.Store(unsafe.SliceData(frame)) }

// resident returns v's payload and true when it is in memory; false when it
// is evicted, not loaded yet, or v is a delete marker. It reads the frame
// (wal.Framed), never the op byte of v's record or the CSN after its
// transaction, which commit writes into a transaction's buffer after
// publication (wal.StampTxn).
func (v *Version) resident() ([]byte, bool) {
	p := v.data.Load()
	if p == nil {
		return nil, false
	}
	f, n := wal.Framed(p)
	return f[len(f)-n:], true
}

// frame returns v's frame and its payload's length, or nil when v's payload
// is not in memory.
func (v *Version) frame() (f []byte, n int) {
	if p := v.data.Load(); p != nil {
		return wal.Framed(p)
	}
	return nil, 0
}

// private reports whether v's payload is still off the log (flagPriv).
func (v *Version) private() bool { return v.has(flagPriv) }

// CSN returns the creation CSN, or 0 while uncommitted.
func (v *Version) CSN() uint64 {
	ts := v.tmin.Load()
	if isTID(ts) {
		return 0
	}
	return ts
}

// payload returns the row bytes, reloading evicted data from the log
// through the engine's mmap read path (the partial-memory story of Section
// 4.2). Loaded data is cached back into the version.
func (v *Version) payload(e *Engine) ([]byte, error) {
	if p, ok := v.resident(); ok {
		return p, nil
	}
	if v.tomb() {
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
	rec, err := log.ReadRecord(v.Addr())
	if err != nil {
		return nil, err
	}
	v.setData(rec.Frame())
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

// swing points v's payload at the frame at addr in the durable log -- the
// length and the n-byte payload of v's record there. It reports false, with
// v untouched, when no single chunk holds those bytes, and otherwise how
// many bytes of private payload v let go of.
func (v *Version) swing(win *logWindow, addr wal.Addr, n int) (released int, ok bool) {
	b := win.bytes(addr, wal.FrameLen(n))
	if b == nil {
		return 0, false
	}
	v.setData(b)
	if v.clearFlag(flagPriv) {
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
