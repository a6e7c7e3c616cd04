package pia

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

type rec struct{ v int }

func TestRIDPacking(t *testing.T) {
	for _, bits := range []uint{12, 20, 32} {
		m := New[rec](Config{SlotBits: bits})
		slot := uint32(0xdeadbeef) & (1<<bits - 1)
		r := m.makeRID(0x1234, slot)
		if p, s := m.split(r); p != 0x1234 || s != slot {
			t.Fatalf("%d slot bits: pack/unpack: %v is %d:%d", bits, r, p, s)
		}
		if p, s := m.split(InvalidRID); p != 0 || s != 0 {
			t.Fatal("InvalidRID not zero")
		}
	}
}

// TestRIDsAreDense: a RID is partition<<slotBits | slot, so partition 1's
// first RID follows partition 0's last, RIDs ascend across the boundary as
// Alloc hands them out, and a RID prints as the number it is.
func TestRIDsAreDense(t *testing.T) {
	const bits = 12
	m := New[rec](Config{SlotBits: bits})
	if r := m.makeRID(1, 0); r != 1<<bits {
		t.Fatalf("partition 1's first RID is %d, want %d", r, 1<<bits)
	}
	prev := InvalidRID
	for i := 1; i < 3<<bits; i++ {
		r, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if r != prev+1 {
			t.Fatalf("Alloc %d: RID %d after %d", i, r, prev)
		}
		prev = r
	}
	if m.Partitions() != 3 {
		t.Fatalf("%d RIDs in %d partitions, want 3", 3<<bits-1, m.Partitions())
	}
	if s := fmt.Sprint(m.makeRID(1, 0)); s != "4096" {
		t.Fatalf("partition 1's first RID prints as %q, want 4096", s)
	}
}

// TestThirtyTwoSlotBits: at the largest slot width a partition's capacity,
// 2^32, still fits its bound: Alloc hands out dense RIDs from partition 0
// without growing one, and once recovery has taken the partition's last slot
// the next RID is partition 1's first, not a wrapped slot 0.
func TestThirtyTwoSlotBits(t *testing.T) {
	m := New[rec](Config{SlotBits: 32})
	for want := RID(1); want <= 1000; want++ {
		r, err := m.Alloc()
		if err != nil || r != want {
			t.Fatalf("Alloc = %d (%v), want %d", r, err, want)
		}
	}
	if m.Partitions() != 1 {
		t.Fatalf("1000 RIDs in %d partitions, want 1", m.Partitions())
	}
	if err := m.AllocAt(m.makeRID(0, 1<<32-1)); err != nil {
		t.Fatal(err)
	}
	if r, err := m.Alloc(); err != nil || r != 1<<32 {
		t.Fatalf("Alloc past partition 0's last slot = %d (%v), want %d", r, err, RID(1<<32))
	}
}

func TestAllocNeverReturnsInvalid(t *testing.T) {
	m := New[rec](Config{SlotBits: 12})
	for i := 0; i < 100; i++ {
		rid, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if rid == InvalidRID {
			t.Fatal("Alloc returned InvalidRID")
		}
	}
}

func TestStoreGetDelete(t *testing.T) {
	m := New[rec](Config{SlotBits: 12})
	rid, _ := m.Alloc()
	if got := m.Get(rid); got != nil {
		t.Fatal("fresh slot not nil")
	}
	v := &rec{v: 42}
	if err := m.Store(rid, v); err != nil {
		t.Fatal(err)
	}
	if got := m.Get(rid); got != v {
		t.Fatal("Get != stored value")
	}
	if err := m.remove(rid); err != nil {
		t.Fatal(err)
	}
	if m.Get(rid) != nil {
		t.Fatal("Get after delete not nil")
	}
}

// stored counts the RIDs among rids whose slots hold a pointer.
func stored[T any](m *Map[T], rids []RID) int {
	n := 0
	for _, rid := range rids {
		if m.Get(rid) != nil {
			n++
		}
	}
	return n
}

func TestCompareAndSwap(t *testing.T) {
	m := New[rec](Config{SlotBits: 12})
	rid, _ := m.Alloc()
	a, b := &rec{1}, &rec{2}
	if ok, _ := m.CompareAndSwap(rid, nil, a); !ok {
		t.Fatal("CAS nil->a failed")
	}
	if ok, _ := m.CompareAndSwap(rid, nil, b); ok {
		t.Fatal("CAS nil->b succeeded over a")
	}
	if ok, _ := m.CompareAndSwap(rid, a, b); !ok {
		t.Fatal("CAS a->b failed")
	}
	if m.Get(rid) != b {
		t.Fatal("wrong final value")
	}
}

func TestGrowthAcrossPartitions(t *testing.T) {
	m := New[rec](Config{SlotBits: 12}) // 4096 slots per partition
	seen := make(map[RID]bool)
	for i := 0; i < 3*4096; i++ {
		rid, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if seen[rid] {
			t.Fatalf("duplicate RID %v", rid)
		}
		seen[rid] = true
	}
	if p := m.Partitions(); p < 3 {
		t.Fatalf("partitions = %d, want >= 3", p)
	}
}

func TestConcurrentAllocUnique(t *testing.T) {
	m := New[rec](Config{SlotBits: 12})
	const workers, per = 8, 2000 // forces partition growth mid-run
	rids := make([][]RID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rid, err := m.Alloc()
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				rids[w] = append(rids[w], rid)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[RID]bool, workers*per)
	for _, rs := range rids {
		for _, r := range rs {
			if seen[r] {
				t.Fatalf("duplicate RID %v", r)
			}
			seen[r] = true
		}
	}
}

func TestAllocAtForRecovery(t *testing.T) {
	m := New[rec](Config{SlotBits: 12})
	rid := m.makeRID(2, 100) // partition 2 does not exist yet
	if err := m.AllocAt(rid); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(rid, &rec{7}); err != nil {
		t.Fatal(err)
	}
	if m.Get(rid).v != 7 {
		t.Fatal("store after AllocAt failed")
	}
	// Fresh allocations must not collide with the recovered RID.
	for i := 0; i < 200; i++ {
		r, _ := m.Alloc()
		if r == rid {
			t.Fatal("Alloc reissued recovered RID")
		}
	}
	// A RID past the last partition a table can have.
	if err := m.AllocAt(RID(maxPartitions << 12)); err == nil {
		t.Fatal("AllocAt past the last partition succeeded")
	}
}

// TestStoreRunForRecovery: a run across partitions, one not there yet, stores
// every version, counts each once, and leaves no RID for Alloc to reissue; a
// run over occupied slots replaces only the occupants its versions do not
// yield to, and clears those that yield; a run past the last partition a
// table can have is an error.
func TestStoreRunForRecovery(t *testing.T) {
	m := New[rec](Config{SlotBits: 12})
	newer := func(have, v *rec) bool { return have.v >= v.v }
	rids := []RID{m.makeRID(0, 3), m.makeRID(0, 4000), m.makeRID(1, 7), m.makeRID(1, 9)}
	vs := []*rec{{1}, {2}, {3}, {4}}
	if err := m.StoreRun(rids, append([]*rec(nil), vs...), newer); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		if m.Get(rid) != vs[i] {
			t.Fatalf("rid %v: got %v", rid, m.Get(rid))
		}
	}
	older, younger := &rec{2}, &rec{5}
	run := []*rec{older, younger}
	if err := m.StoreRun(rids[2:], run, newer); err != nil || stored(m, rids) != 4 {
		t.Fatalf("a second run over stored RIDs: %v, %d stored, want 4", err, stored(m, rids))
	}
	if run[0] != nil || m.Get(rids[2]) != vs[2] || run[1] != younger || m.Get(rids[3]) != younger {
		t.Fatalf("a run over a newer and an older occupant: stored %v, slots %v %v", run, m.Get(rids[2]), m.Get(rids[3]))
	}
	for i := 0; i < 200; i++ {
		if r, _ := m.Alloc(); r == rids[1] || r == rids[3] {
			t.Fatalf("Alloc reissued stored RID %v", r)
		}
	}
	if err := m.StoreRun([]RID{m.makeRID(0, 5), RID(maxPartitions << 12)}, []*rec{{7}, {8}}, newer); err == nil {
		t.Fatal("a run past the last partition stored")
	}
}

func TestBadRID(t *testing.T) {
	m := New[rec](Config{SlotBits: 12})
	bad := m.makeRID(9, 0)
	if m.Get(bad) != nil {
		t.Fatal("Get on missing partition returned value")
	}
	if err := m.Store(bad, &rec{}); err == nil {
		t.Fatal("Store on missing partition succeeded")
	}
	if _, err := m.CompareAndSwap(bad, nil, &rec{}); err == nil {
		t.Fatal("CAS on missing partition succeeded")
	}
}

func TestRangeOrderAndContents(t *testing.T) {
	m := New[rec](Config{SlotBits: 12})
	want := make(map[RID]int)
	for i := 0; i < 5000; i++ {
		rid, _ := m.Alloc()
		if i%3 == 0 {
			continue // leave a hole
		}
		m.Store(rid, &rec{v: i})
		want[rid] = i
	}
	var prev RID
	got := 0
	m.Range(func(rid RID, v *rec) bool {
		if rid <= prev {
			t.Fatalf("Range out of order: %v after %v", rid, prev)
		}
		prev = rid
		if want[rid] != v.v {
			t.Fatalf("Range value mismatch at %v", rid)
		}
		got++
		return true
	})
	if got != len(want) {
		t.Fatalf("Range visited %d, want %d", got, len(want))
	}
}

func TestRangeEarlyStop(t *testing.T) {
	m := New[rec](Config{SlotBits: 12})
	for i := 0; i < 100; i++ {
		rid, _ := m.Alloc()
		m.Store(rid, &rec{v: i})
	}
	n := 0
	m.Range(func(RID, *rec) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestPropertyMapEquivalence(t *testing.T) {
	// The PIA must behave exactly like a map[RID]*rec under a random
	// store/delete workload.
	m := New[rec](Config{SlotBits: 12})
	ref := make(map[RID]*rec)
	var rids []RID
	f := func(op uint8, val int) bool {
		switch {
		case op%4 < 2 || len(rids) == 0: // alloc+store
			rid, err := m.Alloc()
			if err != nil {
				return false
			}
			v := &rec{v: val}
			if m.Store(rid, v) != nil {
				return false
			}
			ref[rid] = v
			rids = append(rids, rid)
		case op%4 == 2: // delete
			rid := rids[((val%len(rids))+len(rids))%len(rids)]
			m.remove(rid)
			delete(ref, rid)
		default: // get
			rid := rids[((val%len(rids))+len(rids))%len(rids)]
			if m.Get(rid) != ref[rid] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Final sweep.
	for _, rid := range rids {
		if m.Get(rid) != ref[rid] {
			t.Fatalf("final mismatch at %v", rid)
		}
	}
	if n := stored(m, rids); n != len(ref) {
		t.Fatalf("%d RIDs stored, want %d", n, len(ref))
	}
}

// TestDeleteIfSparesANewerPointer: the conditional delete clears the entry
// only while the pointer is still the expected one.
func TestDeleteIfSparesANewerPointer(t *testing.T) {
	m := New[int](Config{})
	rid, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	a, b := new(int), new(int)
	if err := m.Store(rid, a); err != nil {
		t.Fatal(err)
	}
	if ok, err := m.DeleteIf(rid, b); ok || err != nil || m.Get(rid) != a {
		t.Fatalf("DeleteIf with a stale pointer: ok=%v err=%v", ok, err)
	}
	if ok, err := m.DeleteIf(rid, a); !ok || err != nil || m.Get(rid) != nil {
		t.Fatalf("DeleteIf with the current pointer: ok=%v err=%v", ok, err)
	}
}

// TestSlotBytes: the heap ledger's pia.slot_bytes counts the pages touched,
// 4,096 one-word slots each.
func TestSlotBytes(t *testing.T) {
	m := New[rec](Config{SlotBits: 16})
	if n := m.SlotBytes(); n != 0 {
		t.Fatalf("an empty map holds %d bytes of slots", n)
	}
	for i := 0; i < 4096+1; i++ {
		rid, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Store(rid, &rec{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.SlotBytes(); n != 2*4096*8 {
		t.Fatalf("4,097 slots hold %d bytes, want two pages of 8-byte entries (%d)", n, 2*4096*8)
	}
}
