package srss

import (
	"bytes"
	"errors"
	"testing"

	"hiengine/internal/chaos"
)

// TestReadFallbackWithFailedReplicas: reads must succeed from any surviving
// replica when one or two replica nodes are Fail()ed, including on sealed
// PLogs.
func TestReadFallbackWithFailedReplicas(t *testing.T) {
	for _, failN := range []int{1, 2} {
		for _, seal := range []bool{false, true} {
			s := New(Config{ComputeNodes: 3, MaxPLogSize: 1 << 20, ChunkSize: 64})
			p, err := s.Create(TierCompute)
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte("fallback"), 40)
			if _, err := p.Append(data); err != nil {
				t.Fatal(err)
			}
			if seal {
				p.Seal()
			}
			for i, id := range p.ReplicaNodes() {
				if i < failN {
					s.ComputeNode(id).Fail()
				}
			}
			got := make([]byte, len(data))
			if _, err := p.ReadAt(got, 0); err != nil {
				t.Fatalf("failN=%d seal=%v: ReadAt: %v", failN, seal, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("failN=%d seal=%v: read mismatch", failN, seal)
			}
			// Mmap views route the same way.
			v := p.Mmap()
			b, err := v.At(8, 16)
			if err != nil {
				t.Fatalf("failN=%d seal=%v: View.At: %v", failN, seal, err)
			}
			if !bytes.Equal(b, data[8:24]) {
				t.Fatalf("failN=%d seal=%v: view mismatch", failN, seal)
			}
		}
	}
}

// TestRepairAfterNodeFailure: a node failing mid-write seals the PLog;
// RepairOnce re-replicates onto a spare and the PLog stays readable with the
// failed node permanently down.
func TestRepairAfterNodeFailure(t *testing.T) {
	s := New(Config{ComputeNodes: 5, MaxPLogSize: 1 << 20, ChunkSize: 64})
	p, err := s.Create(TierCompute)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("x"), 1000)
	if _, err := p.Append(data); err != nil {
		t.Fatal(err)
	}
	victim := p.ReplicaNodes()[0]
	s.ComputeNode(victim).Fail()
	// Next append hits the failed replica: PLog seals.
	if _, err := p.Append([]byte("more")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append on degraded plog: %v, want ErrSealed", err)
	}
	if !p.Sealed() {
		t.Fatal("plog did not seal on replica failure")
	}
	n, err := s.RepairOnce()
	if err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if n != 1 {
		t.Fatalf("RepairOnce replaced %d replicas, want 1", n)
	}
	// The failed node stays down; the new set must exclude it.
	for _, id := range p.ReplicaNodes() {
		if id == victim {
			t.Fatalf("repaired set %v still contains failed node %d", p.ReplicaNodes(), victim)
		}
	}
	if got := s.Stats().Repairs.Load(); got != 1 {
		t.Fatalf("Repairs stat = %d, want 1", got)
	}
	if got := s.Stats().RepairedPLogs.Load(); got != 1 {
		t.Fatalf("RepairedPLogs stat = %d, want 1", got)
	}
	// Full redundancy: all replicas byte-identical and on healthy nodes.
	if !p.CheckReplicas() {
		t.Fatal("replicas diverge after repair")
	}
	got := make([]byte, len(data))
	if _, err := p.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt after repair: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after repair")
	}
	// Idempotent: a second sweep finds nothing degraded.
	if n, err := s.RepairOnce(); err != nil || n != 0 {
		t.Fatalf("second RepairOnce = %d, %v; want 0, nil", n, err)
	}
}

// TestRepairNoSpares: with every non-replica node failed, repair reports a
// PlacementError but leaves the PLog readable.
func TestRepairNoSpares(t *testing.T) {
	s := New(Config{ComputeNodes: 3, MaxPLogSize: 1 << 20, ChunkSize: 64})
	p, err := s.Create(TierCompute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	s.ComputeNode(p.ReplicaNodes()[0]).Fail()
	n, err := s.RepairOnce()
	if n != 0 {
		t.Fatalf("repaired %d replicas with no spares", n)
	}
	var pe *PlacementError
	if !errors.As(err, &pe) || !errors.Is(err, ErrNoHealthyNodes) {
		t.Fatalf("RepairOnce error = %v, want PlacementError wrapping ErrNoHealthyNodes", err)
	}
	got := make([]byte, 7)
	if _, err := p.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
}

// TestPlacementErrorTyped: pickNodes surfaces the typed error and counts the
// failure.
func TestPlacementErrorTyped(t *testing.T) {
	s := New(Config{ComputeNodes: 3, MaxPLogSize: 1 << 20})
	s.ComputeNode(0).Fail()
	_, err := s.Create(TierCompute)
	var pe *PlacementError
	if !errors.As(err, &pe) {
		t.Fatalf("Create error = %T %v, want *PlacementError", err, err)
	}
	if pe.Tier != TierCompute || pe.Need != 3 || pe.Have != 2 {
		t.Fatalf("PlacementError = %+v", pe)
	}
	if !errors.Is(err, ErrNoHealthyNodes) {
		t.Fatal("PlacementError does not unwrap to ErrNoHealthyNodes")
	}
	if got := s.Stats().PlacementFailures.Load(); got != 1 {
		t.Fatalf("PlacementFailures = %d, want 1", got)
	}
}

// TestTornAppend: a chaos-injected torn write seals the PLog, marks it torn,
// leaves divergent replica prefixes with the longest visible as the physical
// extent, routes reads to a replica that covers them, and repair preserves
// the longest prefix. The torn write starts at 100 in 64-byte chunks, so
// most cuts cross a chunk boundary.
func TestTornAppend(t *testing.T) {
	crossed := 0
	for seed := uint64(1); seed <= 20; seed++ {
		ch := chaos.New(seed)
		ch.Arm(chaos.Rule{Site: SiteAppendTear, Action: chaos.Tear, OnHit: 2})
		s := New(Config{ComputeNodes: 5, MaxPLogSize: 1 << 20, ChunkSize: 64, Chaos: ch})
		p, err := s.Create(TierCompute)
		if err != nil {
			t.Fatal(err)
		}
		first := bytes.Repeat([]byte("a"), 100)
		if _, err := p.Append(first); err != nil {
			t.Fatalf("seed %d: first append: %v", seed, err)
		}
		second := bytes.Repeat([]byte("b"), 200)
		_, err = p.Append(second)
		if !errors.Is(err, chaos.ErrCrashed) {
			t.Fatalf("seed %d: torn append error = %v", seed, err)
		}
		if !p.Torn() || !p.Sealed() {
			t.Fatalf("seed %d: torn=%v sealed=%v", seed, p.Torn(), p.Sealed())
		}
		if s.Stats().TornAppends.Load() != 1 {
			t.Fatalf("seed %d: TornAppends = %d", seed, s.Stats().TornAppends.Load())
		}
		// Physical size = 100 + longest kept prefix, in (100, 300).
		size := p.Size()
		if size <= 100 || size >= 300 {
			t.Fatalf("seed %d: post-tear size %d outside (100,300)", seed, size)
		}
		var maxExt int64
		divergent := false
		for i := 0; i < p.Replicas(); i++ {
			ext := p.ReplicaExtent(i)
			if ext > maxExt {
				maxExt = ext
			}
			if ext != p.ReplicaExtent(0) {
				divergent = true
			}
		}
		if maxExt != size {
			t.Fatalf("seed %d: longest extent %d != size %d", seed, maxExt, size)
		}
		// Replica prefixes of the same write never diverge in content, so
		// consistency is exactly extent agreement -- at any offset.
		if got := p.ReplicasConsistentFrom(100); got != !divergent {
			t.Fatalf("seed %d: ReplicasConsistentFrom=%v with divergent=%v", seed, got, divergent)
		}
		// The acked prefix is always consistent and readable (post-restart,
		// so the crash latch is cleared first).
		ch.ClearCrash()
		got := make([]byte, 100)
		if _, err := p.ReadAt(got, 0); err != nil {
			t.Fatalf("seed %d: read acked prefix: %v", seed, err)
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("seed %d: acked prefix mismatch", seed)
		}
		// Each replica's extent is its own cut of the one chunk list: a read
		// up to it returns the bytes written. A read of the whole extent
		// goes to the longest replica, failed or not.
		want := append(append([]byte(nil), first...), second...)
		longest := 0
		for i := 0; i < p.Replicas(); i++ {
			ext := p.ReplicaExtent(i)
			got := make([]byte, ext)
			if _, err := p.ReadAt(got, 0); err != nil || !bytes.Equal(got, want[:ext]) {
				t.Fatalf("seed %d: read of replica %d's extent %d: %v", seed, i, ext, err)
			}
			if ext > p.ReplicaExtent(longest) {
				longest = i
			}
		}
		if size > 128 {
			crossed++
		}
		s.ComputeNode(p.ReplicaNodes()[longest]).Fail()
		got = make([]byte, size)
		if _, err := p.ReadAt(got, 0); err != nil || !bytes.Equal(got, want[:size]) {
			t.Fatalf("seed %d: read of the torn extent with its replica's node failed: %v", seed, err)
		}
		if a := p.Appended(size - 1); len(a) != 1 || a[0] != 'b' {
			t.Fatalf("seed %d: Appended(%d) = %q", seed, size-1, a)
		}
		s.ComputeNode(p.ReplicaNodes()[longest]).Heal()
		// Repair of a torn PLog gives the new replica the longest extent.
		s.ComputeNode(p.ReplicaNodes()[0]).Fail()
		if _, err := s.RepairOnce(); err != nil {
			t.Fatalf("seed %d: RepairOnce: %v", seed, err)
		}
		longest = 0
		for i := 0; i < p.Replicas(); i++ {
			if p.ReplicaExtent(i) > p.ReplicaExtent(longest) {
				longest = i
			}
		}
		if p.ReplicaExtent(longest) != size {
			t.Fatalf("seed %d: repair lost the longest prefix: %d != %d",
				seed, p.ReplicaExtent(longest), size)
		}
	}
	if crossed == 0 {
		t.Fatal("no torn write crossed a chunk boundary")
	}
}

// TestAppendCrashSites: the before/after crash sites lose exactly the ack
// (after) or the whole append (before).
func TestAppendCrashSites(t *testing.T) {
	// Crash before replication: nothing persisted.
	ch := chaos.New(1)
	ch.Arm(chaos.Rule{Site: SiteAppendBefore, Action: chaos.Crash, OnHit: 1})
	s := New(Config{MaxPLogSize: 1 << 20, Chaos: ch})
	p, _ := s.Create(TierCompute)
	if _, err := p.Append([]byte("lost")); !errors.Is(err, chaos.ErrCrashed) {
		t.Fatalf("before-site: %v", err)
	}
	if p.Size() != 0 {
		t.Fatalf("before-site persisted %d bytes", p.Size())
	}
	ch.ClearCrash()

	// Crash after replication: durable but unacked.
	ch2 := chaos.New(2)
	ch2.Arm(chaos.Rule{Site: SiteAppendAfter, Action: chaos.Crash, OnHit: 1})
	s2 := New(Config{MaxPLogSize: 1 << 20, Chaos: ch2})
	p2, _ := s2.Create(TierCompute)
	if _, err := p2.Append([]byte("durable")); !errors.Is(err, chaos.ErrCrashed) {
		t.Fatalf("after-site: %v", err)
	}
	if p2.Size() != 7 {
		t.Fatalf("after-site size %d, want 7 (durable but unacked)", p2.Size())
	}
	ch2.ClearCrash()
	got := make([]byte, 7)
	if _, err := p2.ReadAt(got, 0); err != nil || string(got) != "durable" {
		t.Fatalf("after-site read: %q %v", got, err)
	}
	if !p2.CheckReplicas() {
		t.Fatal("after-site replicas diverge")
	}
}
