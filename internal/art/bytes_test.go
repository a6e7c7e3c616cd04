package art

import (
	"fmt"
	"runtime"
	"testing"

	"hiengine/internal/raceflag"
)

// TestDenseNodeBytesPerKey: a bottom Node256 full of inline values has a
// value array and no child array, so it holds its 256 keys in at most 9
// bytes each (17.4 with a child array of 256 nil pointers).
func TestDenseNodeBytesPerKey(t *testing.T) {
	tr := New()
	for i := 0; i < 256; i++ {
		tr.Insert([]byte{'x', byte(i)}, uint64(i))
	}
	n, w := tr.root.slot('x')
	if n == nil || w != 0 || n.kind != k256 {
		t.Fatalf("slot 'x' holds %v, %d; want a Node256", n, w)
	}
	if n.children(false) != nil {
		t.Fatal("a Node256 of inline values has a child array")
	}
	if perKey := float64(n.bytes()) / 256; perKey > 9 {
		t.Fatalf("a dense Node256 holds %.1f bytes per key, want <= 9", perKey)
	}
	for i := 0; i < 256; i++ {
		if rid, ok, _ := tr.Search([]byte{'x', byte(i)}); !ok || rid != uint64(i) {
			t.Fatalf("key %d: %d, %v", i, rid, ok)
		}
	}
}

// TestNodeBytesMatchesTheHeap: Tree.NodeBytes is within 10% of what the heap grows
// by when the tree is built -- dense 9-byte keys, whose RIDs are words in
// value arrays, and 24-byte string keys, which each take a leaf.
func TestNodeBytesMatchesTheHeap(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	var keys [][]byte
	for i := 0; i < 1<<16; i++ {
		keys = append(keys, append([]byte{1}, u64key(uint64(i))...))
	}
	for i := 0; i < 1<<13; i++ {
		keys = append(keys, []byte(fmt.Sprintf("customer-%06d-%08x", i, i*2654435761)))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := New()
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	got := tr.NodeBytes()
	t.Logf("%d keys: NodeBytes %d, heap grew %d", len(keys), got, heap)
	if got < heap*9/10 || got > heap*11/10 {
		t.Fatalf("NodeBytes = %d, the heap grew %d: more than 10%% apart", got, heap)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(keys)
}
