package art

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"hiengine/internal/raceflag"
)

// TestScanRangeRandomizedOracle pins Scan's range semantics (from
// inclusive, to exclusive, nil open, ascending order, early stop) against a
// sorted slice, over keys built to stress the bound tracking: a tiny
// alphabet including 0x00 and 0xFF, lengths from 0 up, so keys are prefixes
// of each other and of the bounds, and every node size class appears.
func TestScanRangeRandomizedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0xFE, 0xFF}
	randKey := func(maxLen int) []byte {
		k := make([]byte, rng.Intn(maxLen+1))
		for i := range k {
			if rng.Intn(4) == 0 {
				k[i] = byte(rng.Intn(256)) // fan nodes out past 16 and 48 children
			} else {
				k[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		return k
	}
	for round := 0; round < 20; round++ {
		tr := New()
		set := map[string]bool{}
		for i := 0; i < 50+rng.Intn(3000); i++ {
			k := randKey(6)
			tr.Insert(k, uint64(len(k)))
			set[string(k)] = true
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		bound := func() []byte {
			switch rng.Intn(4) {
			case 0:
				return nil
			case 1:
				return []byte(keys[rng.Intn(len(keys))]) // a stored key
			default:
				return randKey(7)
			}
		}
		for q := 0; q < 300; q++ {
			from, to := bound(), bound()
			limit := -1
			if rng.Intn(3) == 0 {
				limit = 1 + rng.Intn(5)
			}
			var want []string
			for _, k := range keys {
				if (from == nil || bytes.Compare([]byte(k), from) >= 0) && (to == nil || bytes.Compare([]byte(k), to) < 0) {
					want = append(want, k)
				}
			}
			if limit >= 0 && len(want) > limit {
				want = want[:limit]
			}
			var got []string
			tr.Scan(from, to, func(k []byte, rid uint64, tomb bool) bool {
				if rid != uint64(len(k)) || tomb {
					t.Fatalf("key %x: rid %d tomb %v", k, rid, tomb)
				}
				got = append(got, string(k))
				return len(got) != limit
			})
			if len(got) != len(want) {
				t.Fatalf("round %d: scan [%x, %x) limit %d: got %d keys, want %d", round, from, to, limit, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d: scan [%x, %x): key %d = %x, want %x", round, from, to, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScanInnerNodesAllocFree pins the closure-free walk: a 100-key range
// scan over a tree with inner nodes of every size allocates nothing.
func TestScanInnerNodesAllocFree(t *testing.T) {
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Insert(u64key(uint64(i)), uint64(i))
	}
	from, to := u64key(50000), u64key(50100)
	n := 0
	visit := func([]byte, uint64, bool) bool { n++; return true }
	if allocs := testing.AllocsPerRun(100, func() { tr.Scan(from, to, visit) }); allocs != 0 && !raceflag.Enabled {
		t.Fatalf("range scan allocates %.1f times, want 0", allocs)
	}
	if n != 101*100 {
		t.Fatalf("visited %d keys, want %d", n, 101*100)
	}
}

// TestInsertLeafAllocs pins the leaf layout: a key of up to leafInlineKey
// bytes (a 9-byte encoded int, the usual primary key) is stored in its
// leaf's own allocation of at most 80 bytes, and an insert costs that one
// allocation plus the inner nodes amortised over their children.
func TestInsertLeafAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 1 << 16
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = append([]byte{1}, u64key(uint64(i))...) // core's int key: tag + 8 bytes
	}
	var sink *node
	mallocs, nbytes := allocsOf(func() {
		for i := range keys {
			sink = newLeaf(keys[i], uint64(i), false)
		}
	})
	_ = sink
	// MemStats counts the whole process: the runtime's own background
	// allocations (a timer, a GC worker starting) land in a window of 65,536
	// now and then, a handful at a time. n/1000 lets those through and still
	// fails a leaf that takes a second allocation in one insert of a thousand.
	if mallocs < n || mallocs > n+n/1000 || nbytes > 80*n {
		t.Fatalf("%d leaves cost %d allocations and %d bytes, want 1 (at most %d in all) and <= 80 bytes each", n, mallocs, nbytes, n+n/1000)
	}
	tr := New()
	mallocs, _ = allocsOf(func() {
		for i := range keys {
			tr.Insert(keys[i], uint64(i))
		}
	})
	if perKey := float64(mallocs) / n; perKey > 1.1 {
		t.Fatalf("insert allocates %.2f times per key, want <= 1.1 (one leaf, inner nodes amortised)", perKey)
	}
}

func allocsOf(fn func()) (mallocs, bytes uint64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fn()
	runtime.ReadMemStats(&ms1)
	return ms1.Mallocs - ms0.Mallocs, ms1.TotalAlloc - ms0.TotalAlloc
}
