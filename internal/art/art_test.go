package art

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Len is the tree's number of entries, counted by a scan.
func (t *Tree) Len() int {
	n := 0
	t.Scan(nil, nil, func([]byte, uint64) bool { n++; return true })
	return n
}

func TestInsertSearchBasic(t *testing.T) {
	tr := New()
	tr.Insert([]byte("hello"), 1)
	tr.Insert([]byte("world"), 2)
	if rid, ok := tr.Search([]byte("hello")); !ok || rid != 1 {
		t.Fatalf("hello: %d %v", rid, ok)
	}
	if rid, ok := tr.Search([]byte("world")); !ok || rid != 2 {
		t.Fatalf("world: %d %v", rid, ok)
	}
	if _, ok := tr.Search([]byte("nope")); ok {
		t.Fatal("found absent key")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestUpsertReplaces(t *testing.T) {
	tr := New()
	tr.Insert([]byte("k"), 1)
	tr.Insert([]byte("k"), 2)
	if rid, ok := tr.Search([]byte("k")); !ok || rid != 2 {
		t.Fatalf("got %d %v", rid, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after upsert", tr.Len())
	}
}

func TestPrefixKeys(t *testing.T) {
	// Keys that are prefixes of each other exercise terminal leaves.
	tr := New()
	keys := []string{"", "a", "ab", "abc", "abcd", "abd", "b"}
	for i, k := range keys {
		tr.Insert([]byte(k), uint64(i+1))
	}
	for i, k := range keys {
		rid, ok := tr.Search([]byte(k))
		if !ok || rid != uint64(i+1) {
			t.Fatalf("key %q: rid=%d ok=%v", k, rid, ok)
		}
	}
	if _, ok := tr.Search([]byte("abcde")); ok {
		t.Fatal("found absent extension")
	}
	if _, ok := tr.Search([]byte("abce")); ok {
		t.Fatal("found absent sibling")
	}
}

func TestPrefixSplit(t *testing.T) {
	tr := New()
	// Long shared prefix forces path compression, then a divergence
	// inside the compressed path forces a split.
	tr.Insert([]byte("aaaaaaaaaaX1"), 1)
	tr.Insert([]byte("aaaaaaaaaaX2"), 2)
	tr.Insert([]byte("aaaaaBBBBBBB"), 3) // diverges inside "aaaaaaaaaaX"
	for k, want := range map[string]uint64{"aaaaaaaaaaX1": 1, "aaaaaaaaaaX2": 2, "aaaaaBBBBBBB": 3} {
		if rid, ok := tr.Search([]byte(k)); !ok || rid != want {
			t.Fatalf("key %q: rid=%d ok=%v want %d", k, rid, ok, want)
		}
	}
}

func TestDeleteRemovesTheEntry(t *testing.T) {
	tr := New()
	tr.Insert([]byte("k"), 9)
	tr.Insert([]byte("j"), 8)
	tr.Delete([]byte("k"))
	if rid, ok := tr.Search([]byte("k")); ok {
		t.Fatalf("a deleted key is found: rid=%d", rid)
	}
	if n := tr.Len(); n != 1 {
		t.Fatalf("Len = %d after a delete, want 1", n)
	}
	tr.Delete([]byte("k")) // absent: nothing to do
	tr.Insert([]byte("k"), 10)
	if rid, ok := tr.Search([]byte("k")); !ok || rid != 10 {
		t.Fatalf("re-inserted key: rid=%d ok=%v", rid, ok)
	}
	if n := tr.Len(); n != 2 {
		t.Fatalf("Len = %d after the re-insert, want 2", n)
	}
}

func TestNodeGrowth(t *testing.T) {
	// >48 distinct first bytes under one parent forces k16 -> k48 -> k256.
	tr := New()
	for i := 0; i < 256; i++ {
		key := []byte{'p', byte(i), 'x'}
		tr.Insert(key, uint64(i+1))
	}
	for i := 0; i < 256; i++ {
		key := []byte{'p', byte(i), 'x'}
		if rid, ok := tr.Search(key); !ok || rid != uint64(i+1) {
			t.Fatalf("key %v: rid=%d ok=%v", key, rid, ok)
		}
	}
	if tr.Len() != 256 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func u64key(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func TestPropertyMapEquivalence(t *testing.T) {
	tr := New()
	ref := make(map[string]uint64)
	f := func(key []byte, rid uint64) bool {
		if len(key) > 64 {
			key = key[:64]
		}
		tr.Insert(key, rid)
		ref[string(key)] = rid
		// Spot-check this key and one random existing key.
		if got, ok := tr.Search(key); !ok || got != rid {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Search([]byte(k))
			return ok && got == v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	// Full sweep.
	for k, v := range ref {
		if got, ok := tr.Search([]byte(k)); !ok || got != v {
			t.Fatalf("final check %q: got=%d ok=%v want=%d", k, got, ok, v)
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
}

func TestScanOrderedComplete(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	ref := make(map[string]uint64)
	for i := 0; i < 5000; i++ {
		k := u64key(uint64(rng.Intn(100000)))
		ref[string(k)] = uint64(i)
		tr.Insert(k, uint64(i))
	}
	var keys []string
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	tr.Scan(nil, nil, func(k []byte, rid uint64) bool {
		if i >= len(keys) {
			t.Fatalf("scan produced extra key %x", k)
		}
		if string(k) != keys[i] {
			t.Fatalf("scan out of order at %d: got %x want %x", i, k, keys[i])
		}
		if rid != ref[keys[i]] {
			t.Fatalf("scan rid mismatch at %x", k)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("scan visited %d of %d", i, len(keys))
	}
}

func TestScanRange(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(u64key(uint64(i*3)), uint64(i))
	}
	from, to := u64key(300), u64key(600)
	var got []uint64
	tr.Scan(from, to, func(k []byte, rid uint64) bool {
		got = append(got, binary.BigEndian.Uint64(k))
		return true
	})
	var want []uint64
	for i := 0; i < 1000; i++ {
		v := uint64(i * 3)
		if v >= 300 && v < 600 {
			want = append(want, v)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("range scan got %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("range scan key %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(u64key(uint64(i)), uint64(i))
	}
	n := 0
	tr.Scan(nil, nil, func([]byte, uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("visited %d, want 5", n)
	}
}

func TestScanVariableLengthKeysOrdered(t *testing.T) {
	tr := New()
	keys := []string{"", "a", "aa", "aaa", "ab", "b", "ba", "z"}
	perm := rand.Perm(len(keys))
	for _, i := range perm {
		tr.Insert([]byte(keys[i]), uint64(i))
	}
	var got []string
	tr.Scan(nil, nil, func(k []byte, _ uint64) bool {
		got = append(got, string(k))
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order mismatch: got %v want %v", got, want)
		}
	}
}

// concurrentKeySets are the key shapes the concurrent tests run over:
// dense 9-byte keys (core's int key: tag + 8 bytes), every one inline in a
// bottom node's slot, and decimal strings of 1 to 5 bytes, prefixes of one
// another, so inline slots turn into inner nodes with terminal leaves and
// lazy leaves split while other goroutines read and write them.
var concurrentKeySets = []struct {
	name string
	key  func(v uint64) []byte
	val  func(k []byte) uint64
}{
	{"dense",
		func(v uint64) []byte { return append([]byte{1}, u64key(v)...) },
		func(k []byte) uint64 { return binary.BigEndian.Uint64(k[1:]) }},
	{"mixed",
		func(v uint64) []byte { return strconv.AppendUint(nil, v, 10) },
		func(k []byte) uint64 { v, _ := strconv.ParseUint(string(k), 10, 64); return v }},
}

// TestConcurrentInsertSearch: writers insert interleaved keys, so they meet
// in the same nodes as those grow and split, and each finds its own insert
// at once; a scanner running beside them must visit, in order, every key
// inserted before its scan began.
func TestConcurrentInsertSearch(t *testing.T) {
	for _, ks := range concurrentKeySets {
		t.Run(ks.name, func(t *testing.T) {
			tr := New()
			const workers = 8
			const per = 5000
			key := func(w, i int) []byte { return ks.key(uint64(i*workers + w)) }
			var done [workers]atomic.Int64 // inserts each worker has finished
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						k := key(w, i)
						tr.Insert(k, uint64(w*per+i+1))
						if rid, ok := tr.Search(k); !ok || rid != uint64(w*per+i+1) {
							t.Errorf("lost own insert w=%d i=%d", w, i)
							return
						}
						done[w].Store(int64(i + 1))
					}
				}(w)
			}
			stop := make(chan struct{})
			scanned := make(chan struct{})
			go func() {
				defer close(scanned)
				seen := make([]bool, workers*per)
				for {
					select {
					case <-stop:
						return
					default:
					}
					var before [workers]int64
					for w := range before {
						before[w] = done[w].Load()
					}
					clear(seen)
					var prev []byte
					tr.Scan(nil, nil, func(k []byte, _ uint64) bool {
						if prev != nil && bytes.Compare(prev, k) >= 0 {
							t.Errorf("scan out of order: %x after %x", k, prev)
							return false
						}
						prev = append(prev[:0], k...)
						seen[ks.val(k)] = true
						return true
					})
					for w := range before {
						for i := 0; i < int(before[w]); i++ {
							if !seen[i*workers+w] {
								t.Errorf("scan missed key w=%d i=%d, inserted before it began", w, i)
								return
							}
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			<-scanned
			if tr.Len() != workers*per {
				t.Fatalf("Len = %d, want %d", tr.Len(), workers*per)
			}
			for w := 0; w < workers; w++ {
				for i := 0; i < per; i++ {
					if rid, ok := tr.Search(key(w, i)); !ok || rid != uint64(w*per+i+1) {
						t.Fatalf("post-hoc miss w=%d i=%d", w, i)
					}
				}
			}
		})
	}
}

func TestConcurrentMixedHotKeys(t *testing.T) {
	// Contended upserts and deletes on a small key space plus concurrent
	// scans: the OLC paths must neither lose updates nor crash/livelock, and
	// every scan must come out in key order.
	for _, ks := range concurrentKeySets {
		t.Run(ks.name, func(t *testing.T) {
			tr := New()
			const workers = 8
			const hot = 200
			var writers, scanners sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < workers/2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < 3000; i++ {
						if i%7 == w {
							tr.Delete(ks.key(uint64(i % hot)))
						}
						tr.Insert(ks.key(uint64(i%hot)), uint64(i+1))
					}
				}(w)
			}
			for w := 0; w < workers/2; w++ {
				scanners.Add(1)
				go func() {
					defer scanners.Done()
					var prev []byte
					for {
						select {
						case <-stop:
							return
						default:
						}
						prev = prev[:0]
						n := 0
						tr.Scan(nil, nil, func(k []byte, _ uint64) bool {
							if n > 0 && bytes.Compare(prev, k) >= 0 {
								t.Errorf("scan out of order: %x after %x", k, prev)
								return false
							}
							prev = append(prev[:0], k...)
							n++
							return true
						})
					}
				}()
			}
			writers.Wait()
			close(stop)
			scanners.Wait()
			for i := 0; i < hot; i++ {
				if _, ok := tr.Search(ks.key(uint64(i))); !ok {
					t.Fatalf("hot key %d is missing", i)
				}
			}
			if tr.Len() != hot {
				t.Fatalf("Len = %d, want %d", tr.Len(), hot)
			}
		})
	}
}
