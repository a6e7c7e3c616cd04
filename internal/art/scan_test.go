package art

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"strings"
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

// TestInlineSlotAllocs pins the slot layout: a dense 9-byte key (core's int
// key: tag + 8 bytes, the usual primary key) ends at its bottom node's slot
// edge, so its RID is a word in that node's value array and an insert
// allocates no leaf. What is left is the inner nodes -- a Node16, Node48 and
// Node256 with their value arrays per 256 keys, and one lazy leaf that the
// second key of each bottom node expands -- amortised over their keys: about
// one allocation per 25 keys and 27 bytes per key, where a leaf per key cost
// one allocation and 64 bytes each.
func TestInlineSlotAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 1 << 16
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = append([]byte{1}, u64key(uint64(i))...)
	}
	tr := New()
	mallocs, nbytes := allocsOf(func() {
		for i := range keys {
			tr.Insert(keys[i], uint64(i))
		}
	})
	t.Logf("%d keys: %.4f allocations and %.1f bytes per key", n, float64(mallocs)/n, float64(nbytes)/n)
	if mallocs > n/16 || nbytes > 32*n {
		t.Fatalf("%d inserts cost %d allocations and %d bytes, want <= %d and <= 32 bytes per key", n, mallocs, nbytes, n/16)
	}
	for i := range keys {
		if rid, ok, tomb := tr.Search(keys[i]); !ok || tomb || rid != uint64(i) {
			t.Fatalf("key %d: %d %v %v", i, rid, ok, tomb)
		}
	}
}

func allocsOf(fn func()) (mallocs, bytes uint64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fn()
	runtime.ReadMemStats(&ms1)
	return ms1.Mallocs - ms0.Mallocs, ms1.TotalAlloc - ms0.TotalAlloc
}

// TestScanResumesPastReplacedNodes: the scan's callback, at the first key,
// inserts a key that replaces a node the scan has already listed but not yet
// reached -- grows it, or copies it in a prefix split. The scan must resume
// past the replaced node and visit every key that was there before it
// began, once and in order, and the new key with them.
func TestScanResumesPastReplacedNodes(t *testing.T) {
	var full []string // two full Node16s, under 'a' and 'b'
	for _, c := range "0123456789abcdef" {
		full = append(full, "a"+string(c), "b"+string(c))
	}
	cases := []struct {
		name   string
		pre    []string
		from   string
		inject string
	}{
		{"growth", full, "", "bz"},
		{"growth, from inside the first node", full, "a3", "bz"},
		{"prefix split", []string{"a0", "a1", "bxyz0", "bxyz1"}, "", "bxQ"},
		{"prefix split, from inside the first node", []string{"a0", "a1", "bxyz0", "bxyz1"}, "a1", "bxyQ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := New()
			for i, k := range tc.pre {
				tr.Insert([]byte(k), uint64(i))
			}
			var from []byte
			if tc.from != "" {
				from = []byte(tc.from)
			}
			var got []string
			tr.Scan(from, nil, func(k []byte, _ uint64, _ bool) bool {
				if len(got) == 0 {
					tr.Insert([]byte(tc.inject), 99)
				}
				got = append(got, string(k))
				return true
			})
			want := []string{tc.inject}
			for _, k := range tc.pre {
				if k >= tc.from {
					want = append(want, k)
				}
			}
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("scan from %q visited %q, want %q", tc.from, got, want)
			}
		})
	}
}
