// Package index implements HiEngine's in-memory index: one concurrent ART
// (package art) mapping keys to record IDs, plus striped key locks for
// unique-constraint checks.
//
// An index is not persisted on its own. The checkpoint image carries every
// row's index keys and recovery re-inserts them, then indexes the log tail's
// rows; the paper's frozen, serialized LSM components (Section 4.5) are not
// built (DESIGN.md, deviation 13). A delete removes the key's entry from the
// tree, and the nodes it empties with it.
package index

import (
	"sync"
	"unsafe"

	"hiengine/internal/art"
)

// Config configures an Index. It has no fields: an index is one in-memory
// tree with nothing to tune. The type stays because callers outside this
// module construct an index with index.New(index.Config{}).
type Config struct{}

// Index is one in-memory index. Every method is safe for concurrent use.
type Index struct {
	tree *art.Tree

	// keyLocks stripe-serializes check-then-insert sequences on unique
	// keys (engine uniqueness enforcement).
	keyLocks [stripes]keyStripe
}

// keyStripe is one key-lock stripe, alone on its cache line, so writers of
// keys on different stripes never contend for one line
// (BenchmarkLockKeyParallel).
type keyStripe struct {
	sync.Mutex
	_ [64 - unsafe.Sizeof(sync.Mutex{})]byte
}

// New builds an empty index.
func New(Config) *Index {
	return &Index{tree: art.New()}
}

// NodeBytes returns the heap bytes the index's tree holds (art.Tree.NodeBytes).
func (ix *Index) NodeBytes() int64 { return ix.tree.NodeBytes() }

// Insert upserts key -> rid.
func (ix *Index) Insert(key []byte, rid uint64) error {
	return ix.InsertHint(key, rid, nil)
}

// InsertHint is Insert through h (art.Hint), which remembers the nodes its
// caller filled: a key beside one of them goes in with one node visit. h is
// the caller's own; nil is Insert.
func (ix *Index) InsertHint(key []byte, rid uint64, h *art.Hint) error {
	if len(key) > art.MaxKeyLen {
		return art.ErrKeyTooLong
	}
	ix.tree.InsertHint(key, rid, h)
	return nil
}

// Delete removes key's entry, when it has one. A key over art.MaxKeyLen is
// never in the tree, so there is nothing to refuse.
func (ix *Index) Delete(key []byte) {
	ix.tree.Delete(key)
}

// Get returns the RID for key; ok is false when the key is absent. The
// error is always nil.
func (ix *Index) Get(key []byte) (rid uint64, ok bool, err error) {
	return ix.GetHint(key, nil)
}

// GetHint is Get through h, as InsertHint; nil is Get.
func (ix *Index) GetHint(key []byte, h *art.Hint) (rid uint64, ok bool, err error) {
	rid, ok = ix.tree.SearchHint(key, h)
	return rid, ok, nil
}

// Scan visits entries with from <= key < to in ascending key order until fn
// returns false. The key handed to fn is valid only during the call. The
// error is always nil.
func (ix *Index) Scan(from, to []byte, fn func(key []byte, rid uint64) bool) error {
	ix.tree.Scan(from, to, fn)
	return nil
}

// KeyLock is a held key-stripe lock; see LockKey.
type KeyLock struct{ mu *sync.Mutex }

// Unlock releases the stripe.
func (l KeyLock) Unlock() { l.mu.Unlock() }

// LockKey acquires the stripe lock covering key and returns it held.
// Unique-constraint enforcement wraps its lookup-check-insert sequence in
// this lock so concurrent inserts of the same key serialize.
func (ix *Index) LockKey(key []byte) KeyLock {
	mu := &ix.keyLocks[stripeOf(key)].Mutex
	mu.Lock()
	return KeyLock{mu}
}

// stripes is the number of key-lock stripes.
const stripes = 64

// stripeOf is the stripe covering key: its FNV-1a hash, modulo stripes.
func stripeOf(key []byte) uint32 {
	var h uint32 = 2166136261
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return h % stripes
}
