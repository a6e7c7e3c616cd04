package index

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hiengine/internal/raceflag"
)

func key(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func TestGetInsertDelete(t *testing.T) {
	ix := New(Config{})
	ix.Insert(key(1), 100)
	ix.Insert(key(2), 200)
	if rid, ok, _ := ix.Get(key(1)); !ok || rid != 100 {
		t.Fatalf("get 1: %d %v", rid, ok)
	}
	ix.Delete(key(1))
	if _, ok, _ := ix.Get(key(1)); ok {
		t.Fatal("deleted key still visible")
	}
	if rid, ok, _ := ix.Get(key(2)); !ok || rid != 200 {
		t.Fatalf("get 2: %d %v", rid, ok)
	}
}

func TestScanEarlyStop(t *testing.T) {
	ix := New(Config{})
	for i := 0; i < 50; i++ {
		ix.Insert(key(uint64(i)), uint64(i))
	}
	n := 0
	ix.Scan(nil, nil, func([]byte, uint64) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("visited %d", n)
	}
}

func TestKeyTooLong(t *testing.T) {
	ix := New(Config{})
	long := make([]byte, 3000)
	if err := ix.Insert(long, 1); err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestConcurrentWrites(t *testing.T) {
	ix := New(Config{})
	const workers, per = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ix.Insert(key(uint64(w*per+i)), uint64(w*per+i+1))
			}
		}(w)
	}
	wg.Wait()
	missing := 0
	for i := 0; i < workers*per; i++ {
		if rid, ok, err := ix.Get(key(uint64(i))); err != nil || !ok || rid != uint64(i+1) {
			missing++
			if missing < 5 {
				t.Errorf("key %d missing after concurrent writes (rid=%d ok=%v err=%v)", i, rid, ok, err)
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d keys lost", missing)
	}
}

func TestScanRandomizedAgainstReference(t *testing.T) {
	ix := New(Config{})
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(1000))
		if rng.Intn(5) == 0 {
			ix.Delete(key(k))
			delete(ref, k)
		} else {
			ix.Insert(key(k), uint64(i+1))
			ref[k] = uint64(i + 1)
		}
	}
	got := map[uint64]uint64{}
	prev := -1
	if err := ix.Scan(nil, nil, func(k []byte, rid uint64) bool {
		v := int(binary.BigEndian.Uint64(k))
		if v <= prev {
			t.Fatalf("scan visited %d after %d", v, prev)
		}
		prev = v
		got[uint64(v)] = rid
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("scan size %d, want %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("key %d = %d, want %d", k, got[k], v)
		}
	}
	// Point lookups agree too, deleted keys included.
	for k := uint64(0); k < 1000; k++ {
		rid, ok, err := ix.Get(key(k))
		if v, live := ref[k]; err != nil || ok != live || rid != v && live {
			t.Fatalf("get %d: %d %v %v, want %d %v", k, rid, ok, err, v, live)
		}
	}
}

// TestConcurrentOperations runs Insert, Delete, Get, Scan and LockKey at once
// on one index. Each writer owns the keys congruent to its number, so under
// a key's lock it knows exactly what Get must return; readers check that a
// RID names the key it was found under (rid>>16 is the key) and that a scan
// ascends. After the writers stop, the index holds each writer's last state.
func TestConcurrentOperations(t *testing.T) {
	const writers, keys, rounds = 4, 512, 40
	ix := New(Config{})
	owned := make([]map[uint64]uint64, writers) // key -> rid, live keys only
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		owned[w] = map[uint64]uint64{}
		wg.Add(1)
		go func(w int, mine map[uint64]uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				for k := uint64(w); k < keys; k += writers {
					l := ix.LockKey(key(k))
					rid, ok, _ := ix.Get(key(k))
					if want, live := mine[k]; ok != live || ok && rid != want {
						l.Unlock()
						t.Errorf("writer %d: get %d = %d %v, want %d %v", w, k, rid, ok, want, live)
						return
					}
					if rng.Intn(4) == 0 {
						ix.Delete(key(k))
						delete(mine, k)
					} else {
						rid := k<<16 | uint64(r)
						ix.Insert(key(k), rid)
						mine[k] = rid
					}
					l.Unlock()
				}
			}
		}(w, owned[w])
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(keys))
				if rid, ok, err := ix.Get(key(k)); err != nil || ok && rid>>16 != k {
					t.Errorf("get %d = %d %v %v", k, rid, ok, err)
					return
				}
				lo := uint64(rng.Intn(keys))
				prev := -1
				if err := ix.Scan(key(lo), key(lo+64), func(kb []byte, rid uint64) bool {
					v := binary.BigEndian.Uint64(kb)
					if int(v) <= prev || v < lo || v >= lo+64 || rid>>16 != v {
						t.Errorf("scan [%d, %d) visited %d (rid %d) after %d", lo, lo+64, v, rid, prev)
						return false
					}
					prev = int(v)
					return true
				}); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	want := map[uint64]uint64{}
	for _, mine := range owned {
		for k, rid := range mine {
			want[k] = rid
		}
	}
	got := map[uint64]uint64{}
	ix.Scan(nil, nil, func(kb []byte, rid uint64) bool {
		got[binary.BigEndian.Uint64(kb)] = rid
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan found %d live keys, want %d", len(got), len(want))
	}
	for k := uint64(0); k < keys; k++ {
		rid, ok, _ := ix.Get(key(k))
		if w, live := want[k]; ok != live || ok && rid != w || got[k] != w {
			t.Fatalf("key %d: get %d %v, scan %d, want %d %v", k, rid, ok, got[k], w, live)
		}
	}
}

// TestSlidingWindowPlateaus: a window of 9-byte int keys slid by inserting
// key N and deleting key N-window -- rows that come and go -- keeps the
// index at the window's size. It holds the window's keys throughout, and
// its NodeBytes after many slides is within 10% of what it was after a
// quarter as many, and at most twice a freshly built window's.
func TestSlidingWindowPlateaus(t *testing.T) {
	const window = 10_000
	slides := 100_000
	if raceflag.Enabled {
		slides = 20_000
	}
	ix := New(Config{})
	k := func(v int) []byte { return append([]byte{1}, key(uint64(v))...) }
	for v := 0; v < window; v++ {
		ix.Insert(k(v), uint64(v))
	}
	fresh := ix.NodeBytes()
	next := window
	slide := func(n int) int64 {
		for end := next + n; next < end; next++ {
			ix.Insert(k(next), uint64(next))
			ix.Delete(k(next - window))
		}
		live := 0
		ix.Scan(nil, nil, func([]byte, uint64) bool { live++; return true })
		if live != window {
			t.Fatalf("after %d slides the index holds %d keys, want %d", next-window, live, window)
		}
		return ix.NodeBytes()
	}
	early := slide(slides)
	late := slide(3 * slides)
	t.Logf("NodeBytes: %d fresh, %d after %d slides, %d after %d", fresh, early, slides, late, 4*slides)
	if late > 2*fresh || late > early*11/10 || late < early*9/10 {
		t.Fatalf("NodeBytes went %d -> %d -> %d over %d slides of a %d-key window", fresh, early, late, 4*slides, window)
	}
}

// TestLockKeyAllocFree: taking and releasing a key's stripe lock is on every
// insert's path and allocates nothing (it hands back a lock, not a closure).
func TestLockKeyAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ix := New(Config{})
	k := key(42)
	if avg := testing.AllocsPerRun(1000, func() { ix.LockKey(k).Unlock() }); avg != 0 {
		t.Fatalf("LockKey allocates %.1f times, want 0", avg)
	}
}

// BenchmarkLockKeyParallel takes and releases stripe locks from parallel
// goroutines, each on a key of its own whose stripe neighbours the next
// goroutine's: no two goroutines ever want one stripe, so what they share,
// if anything, is the stripes' cache line.
func BenchmarkLockKeyParallel(b *testing.B) {
	ix := New(Config{})
	var next atomic.Uint32
	b.RunParallel(func(pb *testing.PB) {
		g := next.Add(1) - 1
		var k []byte
		for i := uint64(0); ; i++ { // the first key on stripe g
			if k = key(i); stripeOf(k) == g%stripes {
				break
			}
		}
		for pb.Next() {
			ix.LockKey(k).Unlock()
		}
	})
}
