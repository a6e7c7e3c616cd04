package srss

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// pattern is the byte at offset off of the logs these tests write.
func pattern(off int64) byte { return byte(off % 251) }

func patterned(off int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = pattern(off + int64(i))
	}
	return b
}

// allocatedBy returns the bytes the heap handed out while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFullChunksAreShared: the three replicas of a PLog hold one chunk list,
// so the heap ledger counts each chunk once.
func TestFullChunksAreShared(t *testing.T) {
	s := New(Config{MaxPLogSize: 1 << 20, ChunkSize: 64})
	p, _ := s.Create(TierCompute)
	for off := int64(0); off < 1000; off += 40 {
		if _, err := p.Append(patterned(off, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.replicaBytes(); n != 16*64 {
		t.Fatalf("replica bytes %d, want %d", n, 16*64)
	}
	if !p.CheckReplicas() || !p.ReplicasConsistentFrom(333) {
		t.Fatal("shared replicas read as inconsistent")
	}
}

// TestAppendAllocatesOneCopy: 1 MiB appended to a three-replica PLog with
// 256 KiB chunks allocates four chunks, not twelve.
func TestAppendAllocatesOneCopy(t *testing.T) {
	s := New(Config{MaxPLogSize: 4 << 20})
	p, err := s.Create(TierCompute)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 256 << 10
	data := patterned(0, 4*chunk)
	n := allocatedBy(func() {
		for off := 0; off < len(data); off += 4096 {
			if _, err := p.Append(data[off : off+4096]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n < 4*chunk || n >= 5*chunk {
		t.Fatalf("1 MiB appended allocated %d bytes, want four %d-byte chunks", n, chunk)
	}
	if got := s.replicaBytes(); got != 4*chunk {
		t.Fatalf("replica bytes %d, want %d", got, 4*chunk)
	}
	got := make([]byte, len(data))
	if _, err := p.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestRepairCopiesNoBytes: repair of a lost replica at any index gives the
// spare the source's extent over the same chunks, allocating less than one
// chunk, and appends after the repair reach the new set.
func TestRepairCopiesNoBytes(t *testing.T) {
	const chunk = 64 << 10
	for victim := 0; victim < 3; victim++ {
		s := New(Config{ComputeNodes: 5, MaxPLogSize: 32 * chunk, ChunkSize: chunk})
		p, _ := s.Create(TierCompute)
		if _, err := p.Append(patterned(0, 16*chunk+100)); err != nil { // 16 full chunks and a tail
			t.Fatal(err)
		}
		before := s.replicaBytes()
		lost := p.ReplicaNodes()[victim]
		s.ComputeNode(lost).Fail()
		var n int
		var err error
		if a := allocatedBy(func() { n, err = s.RepairOnce() }); a >= chunk {
			t.Fatalf("victim %d: repair allocated %d bytes", victim, a)
		}
		if n != 1 || err != nil {
			t.Fatalf("victim %d: RepairOnce = %d, %v", victim, n, err)
		}
		if nodes := p.ReplicaNodes(); nodes[victim] == lost || p.ReplicaExtent(victim) != p.Size() {
			t.Fatalf("victim %d: replica %d on node %d with extent %d, want a spare with %d",
				victim, victim, nodes[victim], p.ReplicaExtent(victim), p.Size())
		}
		if !p.CheckReplicas() {
			t.Fatalf("victim %d: replicas diverge after repair", victim)
		}
		if after := s.replicaBytes(); after != before {
			t.Fatalf("victim %d: replica bytes %d -> %d after repair", victim, before, after)
		}
		if _, err := p.Append(patterned(16*chunk+100, 200)); err != nil {
			t.Fatalf("victim %d: append after repair: %v", victim, err)
		}
		for i := 0; i < p.Replicas(); i++ {
			if p.ReplicaExtent(i) != p.Size() {
				t.Fatalf("victim %d: replica %d extent %d after the next append, want %d",
					victim, i, p.ReplicaExtent(i), p.Size())
			}
		}
		got := make([]byte, p.Size())
		if _, err := p.ReadAt(got, 0); err != nil || !bytes.Equal(got, patterned(0, len(got))) {
			t.Fatalf("victim %d: read back after repair: %v", victim, err)
		}
	}
}

// TestReadersRaceAppendsAndRepair: readers take zero-copy slices, windows and
// the writer's look at the log, compare replicas and count their bytes while
// appends add chunks and a node fails and is repaired under them; every byte
// read is the byte written (run under -race).
func TestReadersRaceAppendsAndRepair(t *testing.T) {
	s := New(Config{ComputeNodes: 4, MaxPLogSize: 1 << 20, ChunkSize: 64})
	p, _ := s.Create(TierCompute)
	const total = 20000
	done := make(chan struct{})
	errc := make(chan error, 4) // one send at most per goroutine
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			v := p.Mmap()
			check := func(off int64, b []byte, what string) bool {
				if !bytes.Equal(b, patterned(off, len(b))) {
					errc <- fmt.Errorf("%s at %d: wrong bytes", what, off)
					return false
				}
				return true
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				size := v.Len()
				if size == 0 {
					continue
				}
				off := rng.Int63n(size)
				n := int(min(size-off, 1+rng.Int63n(40)))
				b, err := v.At(off, n)
				if err != nil {
					errc <- err
					return
				}
				w, err := v.Window(off)
				if err != nil {
					errc <- err
					return
				}
				if !check(off, b, "At") || !check(off, w, "Window") || !check(off, p.Appended(off), "Appended") {
					return
				}
				// Extents advance one replica at a time, so this may be
				// false mid-append.
				p.ReplicasConsistentFrom(off)
				s.replicaBytes()
			}
		}(int64(g))
	}
	// Halfway through, a replica's node fails and is repaired while the
	// writer keeps appending: an append that sees the failure seals the
	// PLog, which ends the writing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p.Size() < total/2 {
			runtime.Gosched()
		}
		s.ComputeNode(p.ReplicaNodes()[1]).Fail()
		if _, err := s.RepairOnce(); err != nil {
			errc <- err
		}
	}()
	for off := int64(0); off < total; off += 24 {
		if _, err := p.Append(patterned(off, 24)); errors.Is(err, ErrSealed) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	for p.Size() < total/2 || p.degraded() {
		runtime.Gosched() // the writer sealed before the repair ran
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if !p.CheckReplicas() {
		t.Fatal("replicas diverge")
	}
}
