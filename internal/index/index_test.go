package index

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hiengine/internal/raceflag"
	"hiengine/internal/srss"
)

func key(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func testIndex(t *testing.T, cfg Config) (*Index, *srss.Service) {
	t.Helper()
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 24})
	cfg.Service = svc
	return New(cfg), svc
}

func TestGetInsertDelete(t *testing.T) {
	ix, _ := testIndex(t, Config{})
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

func TestFreezeKeepsLookups(t *testing.T) {
	ix, _ := testIndex(t, Config{})
	for i := 0; i < 1000; i++ {
		ix.Insert(key(uint64(i)), uint64(i+1))
	}
	if err := ix.Freeze(); err != nil {
		t.Fatal(err)
	}
	if got := ix.MemLen(); got != 0 {
		t.Fatalf("mem not emptied: %d", got)
	}
	if got := ix.Components(); got != 1 {
		t.Fatalf("components = %d", got)
	}
	for i := 0; i < 1000; i++ {
		if rid, ok, err := ix.Get(key(uint64(i))); err != nil || !ok || rid != uint64(i+1) {
			t.Fatalf("post-freeze get %d: %d %v %v", i, rid, ok, err)
		}
	}
	// New writes land in the fresh mem component and shadow old ones.
	ix.Insert(key(5), 999)
	if rid, _, _ := ix.Get(key(5)); rid != 999 {
		t.Fatalf("shadowing failed: %d", rid)
	}
}

func TestTombstoneMasksFrozenEntry(t *testing.T) {
	ix, _ := testIndex(t, Config{})
	ix.Insert(key(7), 70)
	ix.Freeze()
	ix.Delete(key(7))
	if _, ok, _ := ix.Get(key(7)); ok {
		t.Fatal("tombstone did not mask frozen entry")
	}
	ix.Freeze() // tombstone now lives in its own component
	if _, ok, _ := ix.Get(key(7)); ok {
		t.Fatal("frozen tombstone did not mask older component")
	}
}

func TestMergeDropsTombstonesAndDeadPLogs(t *testing.T) {
	ix, svc := testIndex(t, Config{})
	for i := 0; i < 100; i++ {
		ix.Insert(key(uint64(i)), uint64(i+1))
	}
	ix.Freeze()
	for i := 0; i < 50; i++ {
		ix.Delete(key(uint64(i)))
	}
	ix.Insert(key(200), 201)
	ix.Freeze()
	before := len(svc.List(srss.TierCompute))
	if err := ix.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Components(); got != 1 {
		t.Fatalf("components after merge = %d", got)
	}
	after := len(svc.List(srss.TierCompute))
	if after >= before {
		t.Fatalf("merged-away plogs not reclaimed: %d -> %d", before, after)
	}
	for i := 0; i < 50; i++ {
		if _, ok, _ := ix.Get(key(uint64(i))); ok {
			t.Fatalf("deleted key %d resurfaced after merge", i)
		}
	}
	for i := 50; i < 100; i++ {
		if rid, ok, _ := ix.Get(key(uint64(i))); !ok || rid != uint64(i+1) {
			t.Fatalf("live key %d lost after merge", i)
		}
	}
	if rid, ok, _ := ix.Get(key(200)); !ok || rid != 201 {
		t.Fatal("newest component entry lost")
	}
}

func TestScanAcrossComponents(t *testing.T) {
	ix, _ := testIndex(t, Config{})
	// Oldest component: evens.
	for i := 0; i < 100; i += 2 {
		ix.Insert(key(uint64(i)), uint64(1000+i))
	}
	ix.Freeze()
	// Middle: odds, plus delete of key 4.
	for i := 1; i < 100; i += 2 {
		ix.Insert(key(uint64(i)), uint64(2000+i))
	}
	ix.Delete(key(4))
	ix.Freeze()
	// Mem: overwrite key 6.
	ix.Insert(key(6), 9999)

	var got []uint64
	var rids []uint64
	err := ix.Scan(key(0), key(20), func(k []byte, rid uint64) bool {
		got = append(got, binary.BigEndian.Uint64(k))
		rids = append(rids, rid)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	if len(got) != len(want) {
		t.Fatalf("scan got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan got %v want %v", got, want)
		}
	}
	for i, k := range got {
		var expect uint64
		switch {
		case k == 6:
			expect = 9999
		case k%2 == 0:
			expect = 1000 + k
		default:
			expect = 2000 + k
		}
		if rids[i] != expect {
			t.Fatalf("key %d rid = %d want %d", k, rids[i], expect)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	ix, _ := testIndex(t, Config{})
	for i := 0; i < 50; i++ {
		ix.Insert(key(uint64(i)), uint64(i))
	}
	n := 0
	ix.Scan(nil, nil, func([]byte, uint64) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("visited %d", n)
	}
}

func TestAttachRoundTrip(t *testing.T) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 24})
	ix := New(Config{Service: svc})
	for i := 0; i < 500; i++ {
		ix.Insert(key(uint64(i)), uint64(i+1))
	}
	ix.Freeze()
	metas := ix.Metas()
	if len(metas) != 1 {
		t.Fatalf("metas = %d", len(metas))
	}
	// A fresh index (recovery) reattaches the component.
	ix2 := New(Config{Service: svc})
	if err := ix2.Attach(metas[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i += 13 {
		if rid, ok, err := ix2.Get(key(uint64(i))); err != nil || !ok || rid != uint64(i+1) {
			t.Fatalf("attached get %d: %d %v %v", i, rid, ok, err)
		}
	}
}

func TestFreezeWithoutService(t *testing.T) {
	ix := New(Config{})
	ix.Insert(key(1), 1)
	if err := ix.Freeze(); err == nil {
		t.Fatal("freeze without service succeeded")
	}
}

func TestKeyTooLong(t *testing.T) {
	ix := New(Config{})
	long := make([]byte, 3000)
	if err := ix.Insert(long, 1); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := ix.Delete(long); err == nil {
		t.Fatal("oversized key delete accepted")
	}
}

func TestConcurrentWritesWithFreezes(t *testing.T) {
	ix, _ := testIndex(t, Config{})
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
	// Interleave freezes with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := ix.Freeze(); err != nil {
				t.Errorf("freeze: %v", err)
			}
		}
	}()
	wg.Wait()
	ix.Freeze()
	missing := 0
	for i := 0; i < workers*per; i++ {
		if rid, ok, err := ix.Get(key(uint64(i))); err != nil || !ok || rid != uint64(i+1) {
			missing++
			if missing < 5 {
				t.Errorf("key %d missing after concurrent freeze (rid=%d ok=%v err=%v)", i, rid, ok, err)
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d keys lost", missing)
	}
}

func TestScanRandomizedAgainstReference(t *testing.T) {
	ix, _ := testIndex(t, Config{})
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		// Freeze every 300 operations and merge past three components, so
		// the scan below reads the memory component and merged ones.
		if i > 0 && i%300 == 0 {
			if err := ix.Freeze(); err != nil {
				t.Fatal(err)
			}
			if ix.Components() > 3 {
				if err := ix.Merge(); err != nil {
					t.Fatal(err)
				}
			}
		}
		k := uint64(rng.Intn(1000))
		if rng.Intn(5) == 0 {
			ix.Delete(key(k))
			delete(ref, k)
		} else {
			ix.Insert(key(k), uint64(i+1))
			ref[k] = uint64(i + 1)
		}
	}
	if ix.Components() < 2 || ix.MemLen() == 0 {
		t.Fatalf("%d components and %d keys in memory: the scan would not cross components", ix.Components(), ix.MemLen())
	}
	got := map[uint64]uint64{}
	if err := ix.Scan(nil, nil, func(k []byte, rid uint64) bool {
		got[binary.BigEndian.Uint64(k)] = rid
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
	// Point lookups agree too.
	for k, v := range ref {
		rid, ok, err := ix.Get(key(k))
		if err != nil || !ok || rid != v {
			t.Fatalf("get %d: %d %v %v want %d", k, rid, ok, err, v)
		}
	}
	_ = fmt.Sprint(ix) // String smoke test
}

func TestConcurrentReadsDuringMerge(t *testing.T) {
	// Point lookups and scans must stay correct while Freeze and Merge
	// swap the component list underneath them.
	ix, _ := testIndex(t, Config{})
	const n = 2000
	for i := 0; i < n; i++ {
		ix.Insert(key(uint64(i)), uint64(i+1))
		if i%500 == 499 {
			if err := ix.Freeze(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(n))
				rid, ok, err := ix.Get(key(k))
				if err != nil || !ok || rid != k+1 {
					t.Errorf("get %d during merge: %d %v %v", k, rid, ok, err)
					return
				}
				if rng.Intn(50) == 0 {
					cnt := 0
					if err := ix.Scan(key(100), key(200), func([]byte, uint64) bool {
						cnt++
						return true
					}); err != nil {
						t.Errorf("scan during merge: %v", err)
						return
					}
					if cnt != 100 {
						t.Errorf("scan during merge saw %d entries, want 100", cnt)
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < 5; i++ {
		if err := ix.Merge(); err != nil {
			t.Fatal(err)
		}
		if err := ix.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLockKeyAllocFree: taking and releasing a key's stripe lock is on every
// insert's path and allocates nothing (it hands back a lock, not a closure).
func TestLockKeyAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ix, _ := testIndex(t, Config{})
	k := key(42)
	if avg := testing.AllocsPerRun(1000, func() { ix.LockKey(k).Unlock() }); avg != 0 {
		t.Fatalf("LockKey allocates %.1f times, want 0", avg)
	}
}
