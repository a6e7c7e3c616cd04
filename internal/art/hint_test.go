package art

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hiengine/internal/raceflag"
)

// denseKey is core's int key shape: a tag byte and 8 big-endian bytes.
func denseKey(v uint64) []byte { return append([]byte{1}, u64key(v)...) }

// TestHintMatchesUnhinted drives two trees with the same seeded writes, one
// through plain Insert and Search and one through a Hint, and holds them to
// each other and to a map oracle: every search answers alike, and at the end
// both trees scan to the same entries and hold the same NodeBytes -- a hint
// changes the route to a slot, never the tree's shape. The writes mix dense
// 9-byte keys in two interleaved ascending runs, keys from a four-byte
// alphabet that are prefixes of one another, deletes, RIDs too large for a
// slot word (a leaf in the slot), one node's bytes in random order (growth
// 16 -> 48 -> 256 under a remembered node) and long shared prefixes that a
// later key splits.
func TestHintMatchesUnhinted(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plain, hinted := New(), New()
		var h Hint
		ref := map[string]uint64{}
		alphabet := []byte{0x00, 'a', 'b', 0xFF}
		growth := rng.Perm(256)
		runs := [2]uint64{0, 1 << 20}
		key := func() []byte {
			switch rng.Intn(5) {
			case 0, 1: // two ascending runs, interleaved
				r := rng.Intn(2)
				runs[r] += uint64(1 + rng.Intn(2))
				return denseKey(runs[r])
			case 2: // short keys, prefixes of one another
				k := make([]byte, rng.Intn(5))
				for i := range k {
					k[i] = alphabet[rng.Intn(4)]
				}
				return k
			case 3: // one node's bytes in random order
				b := growth[0]
				growth = append(growth[1:], b)
				return []byte{'g', 0, byte(b)}
			default: // a long shared prefix, split at a random depth
				k := bytes.Repeat([]byte{'p'}, 12)
				k[rng.Intn(12)] = 'q'
				return append(k, byte(rng.Intn(4)))
			}
		}
		for op := 0; op < 4000; op++ {
			k := key()
			switch r := rng.Intn(10); {
			case r < 6:
				rid := uint64(rng.Int63n(1 << 40))
				if rng.Intn(20) == 0 {
					rid += 1 << 63 // kept in a leaf
				}
				plain.Insert(k, rid)
				hinted.InsertHint(k, rid, &h)
				ref[string(k)] = rid
			case r < 7:
				plain.Delete(k)
				hinted.Delete(k)
				delete(ref, string(k))
			default:
				want, ok := ref[string(k)]
				rid, found := hinted.SearchHint(k, &h)
				prid, pfound := plain.Search(k)
				if found != ok || rid != want || rid != prid || found != pfound {
					t.Fatalf("seed %d op %d: SearchHint(%x) = %d %v, Search %d %v, want %d %v",
						seed, op, k, rid, found, prid, pfound, want, ok)
				}
			}
		}
		checkAgainst(t, hinted, ref)
		got, want := scanEntries(hinted, nil, nil), scanEntries(plain, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("seed %d: hinted tree scans %d entries, plain %d", seed, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || got[i].RID != want[i].RID {
				t.Fatalf("seed %d: scan entry %d = %+v, plain %+v", seed, i, got[i], want[i])
			}
		}
		if hb, pb := hinted.NodeBytes(), plain.NodeBytes(); hb != pb {
			t.Fatalf("seed %d: hinted tree holds %d node bytes, plain %d", seed, hb, pb)
		}
	}
}

// TestHintForgetsRetiredNode: a node a hint remembers is retired by a prefix
// split, by growth and by the removals that empty it. The next hinted insert
// beside it finds it obsolete, forgets it and descends -- remembering the
// copy that replaced it, or building a new node where the old one was
// unlinked -- so it never writes into a detached node; the tree holds every
// key.
func TestHintForgetsRetiredNode(t *testing.T) {
	tr, ref := New(), map[string]uint64{}
	var h Hint
	put := func(k string, rid uint64) {
		tr.InsertHint([]byte(k), rid, &h)
		ref[k] = rid
	}
	remembers := func(k string) *node {
		t.Helper()
		n, how := holder(tr, []byte(k))
		if how != "inline" {
			t.Fatalf("%q is kept %q, want inline", k, how)
		}
		if hn, _ := h.node(tr, []byte(k)); hn != n {
			t.Fatalf("the hint does not remember the node holding %q", k)
		}
		return n
	}
	put("aaaaaaaaaaX1", 1)
	put("aaaaaaaaaaX2", 2)
	old := remembers("aaaaaaaaaaX2")
	put("aaaaaBBBBBBB", 3) // splits old's prefix: old is retired
	if _, alive := old.rLock(); alive {
		t.Fatal("the prefix split left the remembered node live")
	}
	put("aaaaaaaaaaX3", 4)
	if remembers("aaaaaaaaaaX3") == old {
		t.Fatal("the hint still remembers the retired node")
	}
	for i := 0; i < 16; i++ { // fills a Node16 ...
		put(string([]byte{'z', 'z', byte(i)}), uint64(i))
	}
	full := remembers("zz\x0f")
	put("zz\x10", 16) // ... which grows into a Node48 on the descent
	if grown := remembers("zz\x10"); grown == full || grown.kind != k48 {
		t.Fatalf("after growth the hint remembers a %v node, the old one %v", grown.kind, grown == full)
	}
	put("rr\x01", 1)
	put("rr\x02", 2)
	emptied := remembers("rr\x02")
	for _, k := range []string{"rr\x01", "rr\x02"} {
		tr.Delete([]byte(k))
		delete(ref, k)
	}
	if _, alive := emptied.rLock(); alive {
		t.Fatal("the removals left the emptied node live")
	}
	put("rr\x03", 3)
	if hn, _ := h.node(tr, []byte("rr\x04")); hn == emptied {
		t.Fatal("the hint still remembers the unlinked node")
	}
	checkAgainst(t, tr, ref)
}

// TestHintedWritersRace: hinted inserters over overlapping ranges of dense
// keys run beside plain inserters, hinted searchers and scanners, and beside
// a deleter that empties whole bottom nodes. Every writer gives a key the
// same RID, so whoever wins, a search that finds it must read that RID. The
// churned nodes are filled in two passes by one hinted inserter: the even
// keys of node b, which the deleter then removes, unlinking the node, and
// later the odd ones, through a hint that still remembers the unlinked node;
// it must find it obsolete rather than write into it. At the end the tree
// holds every stable key and every odd churned key once, and scans in
// order. Run it under -race.
func TestHintedWritersRace(t *testing.T) {
	const n = 20000
	const blocks = 64     // churned bottom nodes
	const churn = 1 << 20 // their first key, above the stable ones
	rid := func(v uint64) uint64 { return v*3 + 1 }
	tr := New()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var h Hint
			// Hinted writers 0 and 1 run forward over overlapping
			// two-thirds; 2 and 3 are plain, over all keys forward and
			// backward.
			lo, hi := uint64(0), uint64(n)
			switch w {
			case 0:
				hi = 2 * n / 3
			case 1:
				lo = n / 3
			}
			for v := lo; v < hi; v++ {
				switch w {
				case 0, 1:
					tr.InsertHint(denseKey(v), rid(v), &h)
				case 2:
					tr.Insert(denseKey(v), rid(v))
				default:
					tr.Insert(denseKey(n-1-v), rid(n-1-v))
				}
			}
		}(w)
	}
	evens := make(chan int, blocks)
	var settled atomic.Int64 // churned nodes whose odd keys are all in
	writers.Add(2)
	go func() {
		defer writers.Done()
		var h Hint
		put := func(b, odd int) {
			for j := odd; j < 256; j += 2 {
				v := uint64(churn + b*256 + j)
				tr.InsertHint(denseKey(v), rid(v), &h)
			}
		}
		for b := 0; b <= blocks; b++ {
			if b < blocks {
				put(b, 0)
				evens <- b
			}
			if b > 0 {
				put(b-1, 1)
				settled.Store(int64(b))
			}
		}
		close(evens)
	}()
	go func() {
		defer writers.Done()
		for b := range evens {
			for j := 0; j < 256; j += 2 {
				tr.Delete(denseKey(uint64(churn + b*256 + j)))
			}
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var h Hint
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r == 0 {
					base := uint64(rng.Intn(n - 64))
					if rng.Intn(2) == 0 {
						base = churn + uint64(rng.Intn(blocks*256-64))
					}
					done := churn + 256*uint64(settled.Load())
					for v := base; v < base+64; v++ {
						got, found := tr.SearchHint(denseKey(v), &h)
						if found && got != rid(v) || !found && v >= churn && v < done && v%2 == 1 {
							t.Errorf("key %d: %d %v, want %d", v, got, found, rid(v))
							return
						}
					}
					continue
				}
				done := churn + 256*uint64(settled.Load())
				var prev []byte
				odd := 0
				tr.Scan(nil, nil, func(k []byte, got uint64) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("scan out of order: %x after %x", k, prev)
						return false
					}
					prev = append(prev[:0], k...)
					if v := binary.BigEndian.Uint64(k[1:]); v >= churn && v < done && v%2 == 1 {
						odd++
					}
					return true
				})
				if want := int(done-churn) / 2; odd != want {
					t.Errorf("scan visited %d odd keys of settled churned nodes, want %d", odd, want)
					return
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if want := n + blocks*128; tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
	var h Hint
	for v := uint64(0); v < n; v++ {
		if got, found := tr.SearchHint(denseKey(v), &h); !found || got != rid(v) {
			t.Fatalf("key %d: %d %v, want %d", v, got, found, rid(v))
		}
	}
	for v := uint64(churn); v < churn+blocks*256; v++ {
		if got, found := tr.SearchHint(denseKey(v), &h); found != (v%2 == 1) || found && got != rid(v) {
			t.Fatalf("churned key %d: %d %v", v, got, found)
		}
	}
}

// TestHintedOpsAllocFree: an insert into a node the hint remembers -- a new
// key in an empty slot, or an upsert of a value word -- and a search there,
// hit or miss, allocate nothing.
func TestHintedOpsAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr := New()
	var h Hint
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = denseKey(uint64(i))
	}
	for _, k := range keys[:64] {
		tr.InsertHint(k, 1, &h)
	}
	next := 64
	ops := map[string]func(){
		"insert": func() { tr.InsertHint(keys[next], 2, &h); next++ },
		"upsert": func() { tr.InsertHint(keys[3], 3, &h) },
		"hit":    func() { tr.SearchHint(keys[5], &h) },
		"miss":   func() { tr.SearchHint(keys[255], &h) },
	}
	for name, op := range ops {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("a hinted %s allocates %.1f times, want 0", name, allocs)
		}
	}
	if rid, found := tr.Search(keys[next-1]); !found || rid != 2 {
		t.Fatalf("the last hinted insert: %d %v", rid, found)
	}
}
