package srss

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hiengine/internal/delay"
	"hiengine/internal/obs"
)

func testService(t *testing.T) *Service {
	t.Helper()
	return New(Config{MaxPLogSize: 1 << 20, ChunkSize: 256})
}

func TestAppendRead(t *testing.T) {
	s := testService(t)
	p, err := s.Create(TierCompute)
	if err != nil {
		t.Fatal(err)
	}
	off1, err := p.Append([]byte("hello "))
	if err != nil {
		t.Fatal(err)
	}
	off2, err := p.Append([]byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 || off2 != 6 {
		t.Fatalf("offsets = %d, %d; want 0, 6", off1, off2)
	}
	buf := make([]byte, 11)
	if _, err := p.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello world" {
		t.Fatalf("read %q", buf)
	}
}

func TestAppendCrossesChunks(t *testing.T) {
	s := New(Config{MaxPLogSize: 1 << 20, ChunkSize: 8})
	p, _ := s.Create(TierStorage)
	data := []byte("0123456789abcdefghij") // 20 bytes across 8-byte chunks
	if _, err := p.Append(data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := p.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
	// Unaligned read crossing a chunk boundary.
	got = make([]byte, 10)
	if _, err := p.ReadAt(got, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[5:15]) {
		t.Fatalf("got %q want %q", got, data[5:15])
	}
}

func TestReadOutOfRange(t *testing.T) {
	s := testService(t)
	p, _ := s.Create(TierCompute)
	p.Append([]byte("abc"))
	buf := make([]byte, 4)
	if _, err := p.ReadAt(buf, 0); err == nil {
		t.Fatal("read past durable end succeeded")
	}
	if _, err := p.ReadAt(buf[:1], -1); err == nil {
		t.Fatal("negative offset read succeeded")
	}
}

func TestReplicasIdentical(t *testing.T) {
	s := testService(t)
	p, _ := s.Create(TierCompute)
	for i := 0; i < 100; i++ {
		if _, err := p.Append([]byte(fmt.Sprintf("rec-%04d;", i))); err != nil {
			t.Fatal(err)
		}
	}
	if !p.CheckReplicas() {
		t.Fatal("replicas diverged")
	}
}

func TestConcurrentAppendsAtomic(t *testing.T) {
	s := testService(t)
	p, _ := s.Create(TierCompute)
	const workers, per = 8, 200
	rec := func(w, i int) []byte { return []byte(fmt.Sprintf("[w%02d-i%03d]", w, i)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := p.Append(rec(w, i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if !p.CheckReplicas() {
		t.Fatal("replicas diverged under concurrency")
	}
	// Every record must appear intact (appends are atomic, no interleaving).
	all := make([]byte, p.Size())
	if _, err := p.ReadAt(all, 0); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			if !bytes.Contains(all, rec(w, i)) {
				t.Fatalf("record w=%d i=%d torn or missing", w, i)
			}
		}
	}
}

func TestSealOnNodeFailure(t *testing.T) {
	s := testService(t)
	p, _ := s.Create(TierCompute)
	if _, err := p.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	// Fail one of the replica nodes: by construction the plog has all 3.
	s.ComputeNode(0).Fail()
	s.ComputeNode(1).Fail()
	s.ComputeNode(2).Fail()
	if _, err := p.Append([]byte("after")); err == nil {
		t.Fatal("append with failed replica succeeded")
	} else if !p.Sealed() {
		t.Fatalf("plog not sealed after failed write: %v", err)
	}
	// Sealed plogs stay readable.
	buf := make([]byte, 6)
	if _, err := p.ReadAt(buf, 0); err != nil || string(buf) != "before" {
		t.Fatalf("read after seal: %q, %v", buf, err)
	}
	// Heal and create a fresh plog: retry path.
	s.ComputeNode(0).Heal()
	s.ComputeNode(1).Heal()
	s.ComputeNode(2).Heal()
	p2, err := s.Create(TierCompute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
}

func TestSealedIsImmutable(t *testing.T) {
	s := testService(t)
	p, _ := s.Create(TierStorage)
	p.Append([]byte("x"))
	p.Seal()
	if _, err := p.Append([]byte("y")); err == nil {
		t.Fatal("append to sealed plog succeeded")
	}
	if p.Size() != 1 {
		t.Fatalf("sealed plog grew to %d", p.Size())
	}
}

func TestMaxSize(t *testing.T) {
	s := New(Config{MaxPLogSize: 10, ChunkSize: 8})
	p, _ := s.Create(TierCompute)
	if _, err := p.Append(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append(make([]byte, 3)); err == nil {
		t.Fatal("append past max size succeeded")
	}
	// Exactly filling is allowed.
	if _, err := p.Append(make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDelete(t *testing.T) {
	s := testService(t)
	p, _ := s.Create(TierStorage)
	got, err := s.Open(p.ID())
	if err != nil || got != p {
		t.Fatalf("open: %v", err)
	}
	if err := s.Delete(p.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(p.ID()); err == nil {
		t.Fatal("open after delete succeeded")
	}
	if _, err := p.Append([]byte("x")); err == nil {
		t.Fatal("append after delete succeeded")
	}
	if err := s.Delete(p.ID()); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestList(t *testing.T) {
	s := testService(t)
	c1, _ := s.Create(TierCompute)
	s.Create(TierStorage)
	s.Create(TierStorage)
	if got := len(s.List(TierCompute)); got != 1 {
		t.Fatalf("compute list = %d, want 1", got)
	}
	if got := len(s.List(TierStorage)); got != 2 {
		t.Fatalf("storage list = %d, want 2", got)
	}
	s.Delete(c1.ID())
	if got := len(s.List(TierCompute)); got != 0 {
		t.Fatalf("compute list after delete = %d", got)
	}
}

func TestMmapViewZeroCopyAndStability(t *testing.T) {
	s := New(Config{MaxPLogSize: 1 << 20, ChunkSize: 64})
	p, _ := s.Create(TierCompute)
	p.Append(bytes.Repeat([]byte("a"), 32))
	v := p.Mmap()
	b, err := v.At(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Later appends must not disturb the earlier view.
	p.Append(bytes.Repeat([]byte("b"), 200))
	for _, c := range b {
		if c != 'a' {
			t.Fatal("view mutated by later append")
		}
	}
	// Cross-chunk read: [16,80) straddles the 64-byte chunk boundary and
	// covers the a->b transition at offset 32.
	b2, err := v.At(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range b2 {
		want := byte('a')
		if 16+i >= 32 {
			want = 'b'
		}
		if c != want {
			t.Fatalf("cross-chunk view byte %d = %c, want %c", i, c, want)
		}
	}
	if _, err := v.At(0, int(v.Len())+1); err == nil {
		t.Fatal("view read past end succeeded")
	}
}

// TestViewWindow: a window runs from its offset to the end of that chunk or
// of the PLog, aliases the replica's memory, and is one read.
func TestViewWindow(t *testing.T) {
	s := New(Config{MaxPLogSize: 1 << 20, ChunkSize: 64})
	p, _ := s.Create(TierCompute)
	data := make([]byte, 150)
	for i := range data {
		data[i] = byte(i)
	}
	p.Append(data)
	v := p.Mmap()
	for _, c := range []struct{ off, want int }{{0, 64}, {10, 54}, {63, 1}, {64, 64}, {128, 22}, {149, 1}} {
		before := s.Stats().Reads.Load()
		w, err := v.Window(int64(c.off))
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != c.want || cap(w) != c.want || !bytes.Equal(w, data[c.off:c.off+c.want]) {
			t.Errorf("window at %d: %d bytes (cap %d), want %d", c.off, len(w), cap(w), c.want)
		}
		if got := s.Stats().Reads.Load() - before; got != 1 {
			t.Errorf("window at %d cost %d reads, want 1", c.off, got)
		}
		again, _ := v.Window(int64(c.off))
		if &w[0] != &again[0] {
			t.Errorf("window at %d is a copy", c.off)
		}
		// The appender's own look at the same bytes is the same memory, and
		// is not a read.
		before = s.Stats().Reads.Load()
		if a := p.Appended(int64(c.off)); len(a) != c.want || cap(a) != c.want || &a[0] != &w[0] || s.Stats().Reads.Load() != before {
			t.Errorf("Appended(%d): %d bytes, %d reads; want the window's %d and none", c.off, len(a), s.Stats().Reads.Load()-before, c.want)
		}
	}
	for _, off := range []int64{-1, 150, 151} {
		if _, err := v.Window(off); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("window at %d: %v, want ErrOutOfRange", off, err)
		}
		if a := p.Appended(off); a != nil {
			t.Errorf("Appended(%d): %d bytes, want nil", off, len(a))
		}
	}
	// The PLog grows inside the last window's chunk: the old window is
	// untouched, a new one sees the new bytes.
	w, _ := v.Window(128)
	p.Append([]byte{200, 201})
	if len(w) != 22 {
		t.Fatal("a window grew with the PLog")
	}
	if w2, _ := v.Window(128); len(w2) != 24 || w2[23] != 201 {
		t.Errorf("window after growth: %d bytes", len(w2))
	}
}

func TestLatencyCharging(t *testing.T) {
	var w delay.CountingWaiter
	m := &delay.Model{
		ComputePMAppend: 1 * time.Microsecond,
		IntraComputeRTT: 5 * time.Microsecond,
		CrossLayerRTT:   20 * time.Microsecond,
		IntraStorageRTT: 5 * time.Microsecond,
		SSDWrite:        80 * time.Microsecond,
	}
	s := New(Config{Model: m, Waiter: &w, MaxPLogSize: 1 << 20})
	reg := obs.NewRegistry("test")
	s.AttachObs(reg)
	pc, _ := s.Create(TierCompute)
	pc.Append([]byte("x"))
	if got := w.Total(); got != 6*time.Microsecond {
		t.Fatalf("compute append charged %v, want 6µs", got)
	}
	ps, _ := s.Create(TierStorage)
	ps.Append([]byte("x"))
	if got := w.Total(); got != (6+105)*time.Microsecond {
		t.Fatalf("storage append charged %v total, want 111µs", got)
	}
	if got := reg.Counter("srss.cross_layer_ops").Load(); got != 1 {
		t.Fatalf("cross-layer ops = %d", got)
	}
}

func TestNotEnoughHealthyNodes(t *testing.T) {
	s := New(Config{ComputeNodes: 3, MaxPLogSize: 1 << 20})
	s.ComputeNode(1).Fail()
	if _, err := s.Create(TierCompute); err == nil {
		t.Fatal("create with 2/3 healthy nodes succeeded (need 3 replicas)")
	}
	s.ComputeNode(1).Heal()
	if _, err := s.Create(TierCompute); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAppendReadRoundTrip(t *testing.T) {
	s := New(Config{MaxPLogSize: 1 << 24, ChunkSize: 97}) // odd chunk size
	p, _ := s.Create(TierStorage)
	var offsets []int64
	var payloads [][]byte
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		off, err := p.Append(data)
		if err != nil {
			return false
		}
		offsets = append(offsets, off)
		payloads = append(payloads, append([]byte(nil), data...))
		// Re-read a random earlier payload.
		i := len(offsets) / 2
		got := make([]byte, len(payloads[i]))
		if _, err := p.ReadAt(got, offsets[i]); err != nil {
			return false
		}
		return bytes.Equal(got, payloads[i])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if !p.CheckReplicas() {
		t.Fatal("replicas diverged")
	}
}

func TestWellKnownRegistry(t *testing.T) {
	s := testService(t)
	if _, ok := s.WellKnown("engine"); ok {
		t.Fatal("empty registry resolved a name")
	}
	p, _ := s.Create(TierCompute)
	s.SetWellKnown("engine", p.ID())
	id, ok := s.WellKnown("engine")
	if !ok || id != p.ID() {
		t.Fatalf("lookup: %v %v", id, ok)
	}
	// Re-anchoring overwrites.
	p2, _ := s.Create(TierCompute)
	s.SetWellKnown("engine", p2.ID())
	if id, _ := s.WellKnown("engine"); id != p2.ID() {
		t.Fatal("re-anchor did not overwrite")
	}
}

// TestReplicaBytes: the heap ledger's srss.replica_bytes is the chunk
// capacity of a PLog's one chunk list, whatever the replication factor; a
// deleted PLog's leaves it.
func TestReplicaBytes(t *testing.T) {
	s := testService(t) // 256-byte chunks, three replicas
	p, err := s.Create(TierCompute)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.replicaBytes(); n != 0 {
		t.Fatalf("an empty PLog holds %d bytes", n)
	}
	// 300 bytes: a full chunk and a 44-byte tail, once for three replicas.
	if _, err := p.Append(make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if n := s.replicaBytes(); n != 2*256 {
		t.Fatalf("300 bytes in 256-byte chunks hold %d bytes; want %d", n, 2*256)
	}
	if err := s.Delete(p.ID()); err != nil {
		t.Fatal(err)
	}
	if n := s.replicaBytes(); n != 0 {
		t.Fatalf("a deleted PLog still counts %d bytes", n)
	}
}
