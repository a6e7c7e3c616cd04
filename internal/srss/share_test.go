package srss

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hiengine/internal/obs"
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

// TestFullChunksAreShared: once a chunk fills, replicas 1 and 2 hold replica
// 0's chunk by reference; their tail chunks stay their own.
func TestFullChunksAreShared(t *testing.T) {
	s := New(Config{MaxPLogSize: 1 << 20, ChunkSize: 64})
	p, _ := s.Create(TierCompute)
	for off := int64(0); off < 1000; off += 40 {
		if _, err := p.Append(patterned(off, 40)); err != nil {
			t.Fatal(err)
		}
	}
	reps := p.replicaList()
	for i, r := range reps[1:] {
		if r.verified != 15 {
			t.Fatalf("replica %d shares %d chunks, want 15", i+1, r.verified)
		}
		for ci := 0; ci < 15; ci++ {
			if !sameChunk(r.chunks[ci], reps[0].chunks[ci]) {
				t.Fatalf("replica %d chunk %d is a copy", i+1, ci)
			}
		}
		if sameChunk(r.chunks[15], reps[0].chunks[15]) {
			t.Fatalf("replica %d shares its tail chunk", i+1)
		}
	}
	if phys, logical := s.replicaBytes(); phys != 18*64 || logical != 3*16*64 {
		t.Fatalf("replica bytes %d physical, %d logical; want %d, %d", phys, logical, 18*64, 3*16*64)
	}
	if !p.CheckReplicas() || !p.ReplicasConsistentFrom(333) {
		t.Fatal("shared replicas read as inconsistent")
	}
}

// TestReplicaDivergenceFailStops: a replica whose tail chunk differs from
// replica 0's when it fills fails the append with ErrReplicaDiverged, seals
// the PLog, counts once and shares nothing.
func TestReplicaDivergenceFailStops(t *testing.T) {
	s := testService(t) // 256-byte chunks
	reg := obs.NewRegistry("test")
	s.AttachObs(reg)
	p, _ := s.Create(TierCompute)
	if _, err := p.Append(patterned(0, 100)); err != nil {
		t.Fatal(err)
	}
	p.replicaList()[1].chunks[0][7] ^= 0xff // replica 1's tail chunk, not yet full
	_, err := p.Append(patterned(100, 200))
	if !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("append over a diverged chunk: %v, want ErrReplicaDiverged", err)
	}
	if !strings.Contains(err.Error(), p.ID().String()) || !strings.Contains(err.Error(), "chunk 0") {
		t.Fatalf("error %q names neither the PLog nor the chunk", err)
	}
	if !p.Sealed() {
		t.Fatal("a diverged PLog did not seal")
	}
	if n := s.Stats().Divergences.Load(); n != 1 {
		t.Fatalf("Divergences = %d, want 1", n)
	}
	if n := reg.Counter("srss.replica_divergences").Load(); n != 1 {
		t.Fatalf("srss.replica_divergences = %d, want 1", n)
	}
	for i, r := range p.replicaList() {
		if r.verified != 0 {
			t.Fatalf("replica %d shares %d chunks after a divergence", i, r.verified)
		}
	}
	if phys, logical := s.replicaBytes(); phys != logical {
		t.Fatalf("physical %d != logical %d: a diverged chunk was shared", phys, logical)
	}
	if p.CheckReplicas() {
		t.Fatal("diverged replicas read as consistent")
	}
	if _, err := p.Append([]byte("x")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append after divergence: %v, want ErrSealed", err)
	}
}

// TestRepairSharesFullChunks: repair gives the new replica the source's
// shared chunks by reference and copies only its tail, wherever the lost
// replica sat; appends after repair verify against the new set.
func TestRepairSharesFullChunks(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		s := New(Config{ComputeNodes: 5, MaxPLogSize: 1 << 20, ChunkSize: 64})
		p, _ := s.Create(TierCompute)
		if _, err := p.Append(patterned(0, 1000)); err != nil { // 15 full chunks and a tail
			t.Fatal(err)
		}
		before, _ := s.replicaBytes()
		s.ComputeNode(p.ReplicaNodes()[victim]).Fail()
		if n, err := s.RepairOnce(); n != 1 || err != nil {
			t.Fatalf("victim %d: RepairOnce = %d, %v", victim, n, err)
		}
		if !p.CheckReplicas() {
			t.Fatalf("victim %d: replicas diverge after repair", victim)
		}
		// The lost replica's tail leaves, the new one's copied tail arrives;
		// a copy of the whole extent would add 15 chunks.
		if after, _ := s.replicaBytes(); after != before {
			t.Fatalf("victim %d: physical bytes %d -> %d after repair", victim, before, after)
		}
		if _, err := p.Append(patterned(1000, 200)); err != nil {
			t.Fatalf("victim %d: append after repair: %v", victim, err)
		}
		if !p.CheckReplicas() {
			t.Fatalf("victim %d: replicas diverge after the next append", victim)
		}
		if phys, _ := s.replicaBytes(); phys != (19+2)*64 {
			t.Fatalf("victim %d: physical bytes %d, want %d", victim, phys, (19+2)*64)
		}
		got := make([]byte, 1200)
		if _, err := p.ReadAt(got, 0); err != nil || !bytes.Equal(got, patterned(0, 1200)) {
			t.Fatalf("victim %d: read back after repair: %v", victim, err)
		}
	}
}

// TestReadersRaceTheShareSwap: readers take zero-copy slices, windows and
// the writer's look at the log, compare replicas and count their bytes while
// appends fill chunks and swap them for replica 0's; every byte read is the
// byte written (run under -race).
func TestReadersRaceTheShareSwap(t *testing.T) {
	s := New(Config{MaxPLogSize: 1 << 20, ChunkSize: 64})
	p, _ := s.Create(TierCompute)
	const total = 20000
	done := make(chan struct{})
	errc := make(chan error, 3) // one send at most per reader
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
				// These two read replicas 1 and 2, whose chunks the swap
				// replaces; the result may be false mid-append.
				p.ReplicasConsistentFrom(off)
				s.replicaBytes()
			}
		}(int64(g))
	}
	for off := int64(0); off < total; off += 24 {
		if _, err := p.Append(patterned(off, 24)); err != nil {
			t.Fatal(err)
		}
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
