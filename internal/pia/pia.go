// Package pia implements HiEngine's partitioned indirection arrays
// (Section 4.1): the level of indirection that maps record IDs (RIDs) to the
// head of each record's version chain, realizing "the log is the database".
//
// A table is represented by one or more fixed-size indirection arrays
// (partitions). A RID packs a 16-bit partition ID above its table's slot
// bits, so locating a record is two array indexing steps -- no hashing, no
// tree traversal -- while partitions can still be created and dropped on
// demand to grow and shrink the table. The RIDs of a table are dense: its
// partitions' slots number on from one partition to the next, so a RID is as
// small as the table, and so is its uvarint in the log. Within a partition,
// slot pages are allocated lazily, mirroring the paper's trick of reserving
// virtual address space and letting the OS back it with physical pages on
// first touch.
//
// Each entry is one atomic pointer, a machine word: version installation is a
// single CAS (Section 5.1), and a delete clears it. The paper's per-entry
// delete epochs (Section 4.3) are not kept -- replay orders deletes by CSN
// instead (DESIGN.md "Honest deviations").
package pia

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// RID is a record identifier: partition<<slotBits | slot, with its table's
// slot bits (Config.SlotBits). A RID uniquely identifies a record and never
// changes during the record's lifetime. Only its Map can split it.
type RID uint64

// InvalidRID is the zero RID; slot 0 of partition 0 is never allocated so
// that InvalidRID is never a live record.
const InvalidRID RID = 0

// maxPartitions is how many partitions a table may have: a 16-bit ID each.
const maxPartitions = 1 << 16

// Errors.
var (
	// ErrTableFull is returned when all 65536 partitions are exhausted.
	ErrTableFull = errors.New("pia: table full (65536 partitions exhausted)")
	// ErrBadRID is returned for RIDs that do not address an allocated slot.
	ErrBadRID = errors.New("pia: rid out of range")
)

// entry is one indirection array slot: one word.
type entry[T any] struct {
	ptr atomic.Pointer[T]
}

// pageBits is the log2 of slots per lazily-allocated page.
const pageBits = 12 // 4096 slots per page

// partition is one fixed-size indirection array with lazily allocated pages.
type partition[T any] struct {
	id       uint16
	slotBits uint

	mu    sync.Mutex // guards page allocation only
	pages []atomic.Pointer[[1 << pageBits]entry[T]]

	// next is the next slot to hand out in this partition: 64 bits, so it
	// neither wraps nor reads as 0 at 32 slot bits.
	next atomic.Uint64
}

func newPartition[T any](id uint16, slotBits uint) *partition[T] {
	nPages := 1 << (slotBits - pageBits)
	return &partition[T]{
		id:       id,
		slotBits: slotBits,
		pages:    make([]atomic.Pointer[[1 << pageBits]entry[T]], nPages),
	}
}

func (p *partition[T]) capacity() uint64 { return 1 << p.slotBits }

// slot returns the entry for s, allocating its page on first touch; nil if
// the page was never touched and alloc is false.
func (p *partition[T]) slot(s uint32, alloc bool) *entry[T] {
	pi := s >> pageBits
	pg := p.pages[pi].Load()
	if pg == nil {
		if !alloc {
			return nil
		}
		p.mu.Lock()
		pg = p.pages[pi].Load()
		if pg == nil {
			pg = new([1 << pageBits]entry[T])
			p.pages[pi].Store(pg)
		}
		p.mu.Unlock()
	}
	return &pg[s&(1<<pageBits-1)]
}

// Config configures a Map.
type Config struct {
	// SlotBits is the log2 of slots per partition. The paper uses 32
	// (4 Gi slots per partition); the default here is 20 so tests and
	// benchmarks do not reserve gigabytes of page tables. Must be at
	// least pageBits and at most 32.
	SlotBits uint
}

// Map is the full per-table indirection structure: a dynamic set of
// partitions addressed by the high bits of the RID. The partition list is
// published through an atomic pointer so the hot read path (two array
// indexing steps, Section 4.1) takes no locks; growth copies the list under
// the mutex and swaps it in.
type Map[T any] struct {
	slotBits uint

	mu         sync.Mutex                      // guards growth only
	partitions atomic.Pointer[[]*partition[T]] // index = partition ID

	// allocPart is the partition currently accepting new RIDs.
	allocPart atomic.Pointer[partition[T]]
}

// New builds an empty Map. A first partition is created eagerly so that
// allocation never observes an empty table.
func New[T any](cfg Config) *Map[T] {
	if cfg.SlotBits == 0 {
		cfg.SlotBits = 20
	}
	if cfg.SlotBits < pageBits {
		cfg.SlotBits = pageBits
	}
	if cfg.SlotBits > 32 {
		cfg.SlotBits = 32
	}
	m := &Map[T]{slotBits: cfg.SlotBits}
	p := newPartition[T](0, cfg.SlotBits)
	// Burn slot 0 of partition 0 so InvalidRID never addresses a record.
	p.next.Store(1)
	parts := []*partition[T]{p}
	m.partitions.Store(&parts)
	m.allocPart.Store(p)
	return m
}

// makeRID packs a partition and slot into a RID.
func (m *Map[T]) makeRID(partition uint16, slot uint32) RID {
	return RID(uint64(partition)<<m.slotBits | uint64(slot))
}

// split returns rid's partition ID, which may be past the last a table can
// have, and its slot.
func (m *Map[T]) split(rid RID) (partition uint64, slot uint32) {
	return uint64(rid) >> m.slotBits, uint32(rid & (1<<m.slotBits - 1))
}

// part returns partition id, or nil when out of range or dropped.
func (m *Map[T]) part(id uint64) *partition[T] {
	parts := *m.partitions.Load()
	if id >= uint64(len(parts)) {
		return nil
	}
	return parts[id]
}

// grow appends a fresh partition and returns it.
func (m *Map[T]) grow() (*partition[T], error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Another allocator may have grown the table while we waited.
	cur := m.allocPart.Load()
	if cur != nil && cur.next.Load() < cur.capacity() {
		return cur, nil
	}
	old := *m.partitions.Load()
	if len(old) >= maxPartitions {
		return nil, ErrTableFull
	}
	p := newPartition[T](uint16(len(old)), m.slotBits)
	parts := append(append([]*partition[T](nil), old...), p)
	m.partitions.Store(&parts)
	m.allocPart.Store(p)
	return p, nil
}

// Alloc reserves a fresh RID and returns it. The slot starts with a nil
// pointer; the caller installs the first version with Store or
// CompareAndSwap.
func (m *Map[T]) Alloc() (RID, error) {
	for {
		p := m.allocPart.Load()
		s := p.next.Add(1) - 1
		if s < p.capacity() {
			return m.makeRID(p.id, uint32(s)), nil
		}
		// Partition exhausted; grow (or pick up a concurrent grow).
		np, err := m.grow()
		if err != nil {
			return InvalidRID, err
		}
		_ = np
	}
}

// AllocAt forces allocation of a specific RID, creating intermediate
// partitions as needed. Recovery uses this to rebuild the indirection
// arrays exactly as the checkpoint and log dictate; the fast path is
// read-locked so parallel replay threads do not serialize here.
func (m *Map[T]) AllocAt(rid RID) error {
	pid, slot := m.split(rid)
	if pid >= maxPartitions {
		return fmt.Errorf("%w: %v (partition %d)", ErrBadRID, rid, pid)
	}
	p := m.part(pid)
	if p == nil {
		m.mu.Lock()
		parts := append([]*partition[T](nil), *m.partitions.Load()...)
		for pid >= uint64(len(parts)) {
			np := newPartition[T](uint16(len(parts)), m.slotBits)
			parts = append(parts, np)
			m.allocPart.Store(np)
		}
		m.partitions.Store(&parts)
		p = parts[pid]
		m.mu.Unlock()
	}
	// Raise the allocation cursor past this slot so future Allocs do not
	// hand it out again.
	for {
		cur := p.next.Load()
		if cur > uint64(slot) || p.next.CompareAndSwap(cur, uint64(slot)+1) {
			break
		}
	}
	// Touch the slot's page so later Get/CAS calls find it allocated.
	p.slot(slot, true)
	return nil
}

// StoreRun stores vs[i], which is not nil, at rids[i] for every i, allocating
// each RID as AllocAt does: recovery's bulk load. Where the slot already holds
// a pointer that vs[i] yields to (yield(have, vs[i])), the slot keeps it and
// vs[i] is set to nil, so the caller sees which it stored. The RIDs ascend.
// Each partition the run touches has its allocation cursor raised once, not
// once per RID, so runs stored from several goroutines at once do not contend
// on it.
func (m *Map[T]) StoreRun(rids []RID, vs []*T, yield func(have, v *T) bool) error {
	for i := 0; i < len(rids); {
		pid, _ := m.split(rids[i])
		j := i + 1
		for j < len(rids) && uint64(rids[j])>>m.slotBits == pid {
			j++
		}
		if err := m.AllocAt(rids[j-1]); err != nil {
			return err
		}
		p := m.part(pid)
		for k := i; k < j; k++ {
			_, slot := m.split(rids[k])
			e := p.slot(slot, true)
			for {
				have := e.ptr.Load()
				if have != nil && yield(have, vs[k]) {
					vs[k] = nil
					break
				}
				if e.ptr.CompareAndSwap(have, vs[k]) {
					break
				}
			}
		}
		i = j
	}
	return nil
}

// Get loads the pointer stored at rid (nil if unset or deleted).
func (m *Map[T]) Get(rid RID) *T {
	pid, slot := m.split(rid)
	p := m.part(pid)
	if p == nil {
		return nil
	}
	e := p.slot(slot, false)
	if e == nil {
		return nil
	}
	return e.ptr.Load()
}

// Store unconditionally sets the pointer at rid.
func (m *Map[T]) Store(rid RID, v *T) error {
	e, err := m.entryOf(rid)
	if err != nil {
		return err
	}
	e.ptr.Store(v)
	return nil
}

// CompareAndSwap installs v at rid iff the current pointer is old. This is
// the version-installation primitive of Section 5.1 and the replay conflict
// resolution of Section 4.3.
func (m *Map[T]) CompareAndSwap(rid RID, old, v *T) (bool, error) {
	e, err := m.entryOf(rid)
	if err != nil {
		return false, err
	}
	return e.ptr.CompareAndSwap(old, v), nil
}

// remove clears the pointer at rid.
func (m *Map[T]) remove(rid RID) error {
	e, err := m.entryOf(rid)
	if err != nil {
		return err
	}
	e.ptr.Store(nil)
	return nil
}

// DeleteIf clears the pointer at rid provided it is still old: the clear and
// the check are one step, so a version installed in between (an insert
// reusing the RID) is never swept out with the delete marker it replaced. The
// caller holds old, so it cannot be freed and reused in between: a pointer
// compare-and-swap has no ABA problem here.
func (m *Map[T]) DeleteIf(rid RID, old *T) (bool, error) {
	return m.CompareAndSwap(rid, old, nil)
}

func (m *Map[T]) entryOf(rid RID) (*entry[T], error) {
	pid, slot := m.split(rid)
	p := m.part(pid)
	if p == nil {
		return nil, fmt.Errorf("%w: %v (no partition %d)", ErrBadRID, rid, pid)
	}
	return p.slot(slot, true), nil
}

// SlotBytes returns the bytes of the slot pages allocated so far: what the
// indirection arrays hold in memory, whatever the slots point at.
func (m *Map[T]) SlotBytes() int64 {
	var n int64
	for _, p := range *m.partitions.Load() {
		if p == nil {
			continue
		}
		for i := range p.pages {
			if p.pages[i].Load() != nil {
				n++
			}
		}
	}
	return n * int64(unsafe.Sizeof([1 << pageBits]entry[T]{}))
}

// Range calls fn for every allocated slot holding a non-nil pointer, in RID
// order, until fn returns false. Checkpointing and compaction are built on
// this scan.
func (m *Map[T]) Range(fn func(rid RID, v *T) bool) {
	for _, p := range *m.partitions.Load() {
		if p == nil {
			continue
		}
		limit := p.next.Load()
		if limit > p.capacity() {
			limit = p.capacity()
		}
		for s := uint64(0); s < limit; s++ {
			e := p.slot(uint32(s), false)
			if e == nil {
				// Skip the rest of this untouched page.
				s |= 1<<pageBits - 1
				continue
			}
			if v := e.ptr.Load(); v != nil {
				if !fn(m.makeRID(p.id, uint32(s)), v) {
					return
				}
			}
		}
	}
}
