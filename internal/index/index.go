// Package index implements HiEngine's in-memory index: one concurrent ART
// (package art) mapping keys to record IDs, plus striped key locks for
// unique-constraint checks.
//
// An index is not persisted on its own. The checkpoint image carries every
// row's index keys and recovery re-inserts them, then indexes the log tail's
// rows; the paper's frozen, serialized LSM components (Section 4.5) are not
// built (DESIGN.md, deviation 13). A delete leaves a tombstone in the tree,
// which lookups and scans skip; tombstones are never physically removed.
package index

import (
	"sync"

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
	keyLocks [64]sync.Mutex
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

// Delete records a tombstone for key.
func (ix *Index) Delete(key []byte) error {
	if len(key) > art.MaxKeyLen {
		return art.ErrKeyTooLong
	}
	ix.tree.InsertTombstone(key)
	return nil
}

// Get returns the RID for key. ok is false when the key is absent or
// deleted. The error is always nil.
func (ix *Index) Get(key []byte) (rid uint64, ok bool, err error) {
	return ix.GetHint(key, nil)
}

// GetHint is Get through h, as InsertHint; nil is Get.
func (ix *Index) GetHint(key []byte, h *art.Hint) (rid uint64, ok bool, err error) {
	rid, found, tomb := ix.tree.SearchHint(key, h)
	return rid, found && !tomb, nil
}

// Scan visits live entries with from <= key < to in ascending key order,
// skipping tombstones, until fn returns false. The key handed to fn is valid
// only during the call. The error is always nil.
func (ix *Index) Scan(from, to []byte, fn func(key []byte, rid uint64) bool) error {
	ix.tree.Scan(from, to, func(k []byte, rid uint64, tomb bool) bool {
		return tomb || fn(k, rid)
	})
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
	var h uint32 = 2166136261
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	mu := &ix.keyLocks[h&63]
	mu.Lock()
	return KeyLock{mu}
}
