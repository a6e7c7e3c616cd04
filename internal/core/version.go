package core

import (
	"sync/atomic"

	"hiengine/internal/wal"
)

// tidFlag marks a timestamp word as a transaction ID rather than a CSN
// (Section 5.1: uncommitted versions carry their creator's TID in tmin so
// readers can skip or speculate on them).
const tidFlag uint64 = 1 << 63

func isTID(ts uint64) bool { return ts&tidFlag != 0 }

// Version is one record version, chained new-to-old from the record's PIA
// entry (Section 4). All mutable fields are atomics: versions are read
// lock-free by any transaction. It is 64 bytes, the allocator's 64-byte
// class: a version's end is the start of the one above it in the chain
// (tmin of next-newer), so it keeps no tmax.
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
	// data holds the full row payload (Section 4.2: updates write
	// complete record contents): the record's payload where it lies in the
	// creating transaction's log buffer until the version's log record is
	// durable, the record's own bytes in the log from then on
	// (backWithLog). It may be evicted (set to nil) for durable versions;
	// readers then reload it through the log's mmap view using addr.
	data atomic.Pointer[[]byte]
	// tomb marks delete markers (immutable after creation).
	tomb bool
	// flags holds flagPrivate and flagOwnTaken.
	flags atomic.Uint32
	// own is the slice header the version's first log-backed payload is
	// boxed in (backWithLog): data then points into the version itself, and
	// a read goes from the version straight to the log's bytes. Written
	// once, by whoever sets flagOwnTaken, before data publishes it.
	own []byte
}

const (
	// flagPrivate says data is still the bytes the version was built
	// around, beside the log's: the transaction's buffer, or a payload of
	// its own (newPayload). Whoever clears it takes those bytes off the
	// engine's ledger of them (core.payload_private_bytes): the swing onto
	// the log, an eviction, GC.
	flagPrivate uint32 = 1 << iota
	// flagOwnTaken says own has been claimed (backWithLog).
	flagOwnTaken
)

// newVersion builds a version around a payload (nil for a delete marker):
// the version itself is its only allocation.
func newVersion(tid uint64, payload *[]byte, tomb bool, next *Version) *Version {
	v := &Version{tomb: tomb}
	v.tmin.Store(tid)
	v.data.Store(payload)
	if payload != nil {
		v.flags.Store(flagPrivate)
	}
	v.next.Store(next)
	return v
}

// private reports whether v's payload is still off the log (flagPrivate).
func (v *Version) private() bool { return v.flags.Load()&flagPrivate != 0 }

// claim sets flag f and reports whether this call set it: exactly one
// caller wins each flag.
func (v *Version) claim(f uint32) bool {
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

// release clears flag f and reports whether this call cleared it.
func (v *Version) release(f uint32) bool {
	for {
		old := v.flags.Load()
		if old&f == 0 {
			return false
		}
		if v.flags.CompareAndSwap(old, old&^f) {
			return true
		}
	}
}

// Tomb reports whether the version is a delete marker.
func (v *Version) Tomb() bool { return v.tomb }

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
	if p := v.data.Load(); p != nil {
		return *p, nil
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

// backWithLog makes b -- the payload of v's record where it lies in the
// durable log -- v's payload. It is the one writer of log-backed
// Version.data: a reload, the index rebuild, the swing at durability and
// compaction all end here. The slice header data points at is the one inside
// v the first time and a fresh one after that: a header is immutable once
// published, a reader may be looking at it -- as a reader that loaded the
// previous pointer goes on reading the same immutable bytes through it.
func (v *Version) backWithLog(b []byte) {
	hdr := &v.own
	if !v.claim(flagOwnTaken) {
		hdr = new([]byte)
	}
	*hdr = b
	v.data.Store(hdr)
}

// reload reads v's evicted payload back from the log and caches it in the
// version. The payload aliases storage-backed memory: the log's bytes are
// the row.
func (v *Version) reload(log recordReader) ([]byte, error) {
	rec, err := log.ReadRecord(wal.Addr(v.addr.Load()))
	if err != nil {
		return nil, err
	}
	v.backWithLog(rec.Payload)
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
	v.backWithLog(b)
	if v.release(flagPrivate) {
		released = n
	}
	return released, true
}

// Evict drops the in-memory payload of a durable version. Returns false if
// the version is not durable yet (evicting it would lose data).
func (v *Version) Evict() bool {
	if v.addr.Load() == 0 || v.tomb {
		return false
	}
	v.data.Store(nil)
	return true
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
