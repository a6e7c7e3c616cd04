// Package index implements HiEngine's append-only, partial-memory index
// (Section 4.5): an LSM-like structure with one mutable in-memory ART
// component and a list of immutable, serialized components persisted through
// SRSS and searched in place via mmap-style reads.
//
// Freeze, called by its owner, serializes the in-memory component into a
// fresh PLog, pushes it onto the read-only list, and replaces it by an empty
// tree. Lookups probe the in-memory component first, then read-only
// components newest-to-oldest; the first hit (including tombstones) wins.
// Merge bounds the component count by folding read-only components together,
// dropping tombstones when merging into the oldest component. Because
// indexes store only key->RID mappings, merges move no record data (Section
// 4.5).
package index

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hiengine/internal/art"
	"hiengine/internal/srss"
)

// Config configures an Index.
type Config struct {
	// Service persists frozen components; nil disables Freeze (pure
	// in-memory index).
	Service *srss.Service
	// Tier is where frozen components are written (default compute).
	Tier srss.Tier
}

// Index is one LSM-like index instance. Point and range operations are safe
// for concurrent use; Freeze, Merge and Compact serialize against each other
// and against writers only for the brief component-list swap.
type Index struct {
	cfg Config

	mu    sync.RWMutex // guards mem swap and comps list
	mem   *memComp
	comps *compList // newest first

	maintMu sync.Mutex // serializes Freeze/Merge/Compact

	// keyLocks stripe-serializes check-then-insert sequences on unique
	// keys (engine uniqueness enforcement).
	keyLocks [64]sync.Mutex
}

// compList is an immutable snapshot of the read-only component list,
// reference-counted so merged-away PLogs are reclaimed only once no reader
// still uses them (the paper: compacted components are "discarded once no
// thread is still using them via mmap"). The list is born with one owner
// reference, dropped when a maintenance operation retires it.
type compList struct {
	comps []*component
	refs  atomic.Int64
	// dead holds the PLogs to delete when the last reference drops.
	dead atomic.Pointer[[]*srss.PLog]
	svc  *srss.Service
}

// memComp wraps the mutable in-memory tree with a writer pin (see Loader) so
// Freeze can wait for in-flight writers before serializing the retired tree
// (a write landing after serialization would be silently lost).
type memComp struct {
	tree    *art.Tree
	writers atomic.Int64
}

// Loader is a pin on the in-memory component: while it is held, Insert
// goes straight to the tree. A bulk load takes one per batch of rows instead
// of paying the pin -- a lock and two writes to a counter every loading
// thread shares -- per key. A Freeze waits for the pin, so a batch stays a
// few hundred rows.
type Loader struct {
	m *memComp
}

// Load pins the current in-memory component for a batch of inserts; the
// caller must call Done after the last.
func (ix *Index) Load() Loader {
	ix.mu.RLock()
	m := ix.mem
	m.writers.Add(1)
	ix.mu.RUnlock()
	return Loader{m}
}

// Insert upserts key -> rid.
func (l Loader) Insert(key []byte, rid uint64) error {
	if len(key) > art.MaxKeyLen {
		return art.ErrKeyTooLong
	}
	l.m.tree.Insert(key, rid)
	return nil
}

// Done releases the pin.
func (l Loader) Done() { l.m.writers.Add(-1) }

func newCompList(svc *srss.Service, comps []*component) *compList {
	l := &compList{comps: comps, svc: svc}
	l.refs.Store(1) // owner reference
	return l
}

func (l *compList) unref() {
	if l.refs.Add(-1) != 0 {
		return
	}
	if dead := l.dead.Load(); dead != nil {
		for _, p := range *dead {
			_ = l.svc.Delete(p.ID())
		}
	}
}

// acquire pins the current component list for reading.
func (ix *Index) acquire() (*art.Tree, *compList) {
	ix.mu.RLock()
	mem := ix.mem.tree
	l := ix.comps
	l.refs.Add(1)
	ix.mu.RUnlock()
	return mem, l
}

// component is one immutable serialized component and its backing PLog.
type component struct {
	c    *art.Component
	plog *srss.PLog
	res  art.SerializeResult
}

// ComponentMeta describes a persisted component for manifests.
type ComponentMeta struct {
	PLogID  srss.PLogID
	RootOff int64
	Length  int64
	Count   int64
}

// New builds an empty index.
func New(cfg Config) *Index {
	return &Index{cfg: cfg, mem: &memComp{tree: art.New()}, comps: newCompList(cfg.Service, nil)}
}

// Errors.
var (
	ErrNoService = errors.New("index: no storage service configured")
)

// Insert upserts key -> rid in the in-memory component: a load of one.
func (ix *Index) Insert(key []byte, rid uint64) error {
	l := ix.Load()
	err := l.Insert(key, rid)
	l.Done()
	return err
}

// Delete records a tombstone for key.
func (ix *Index) Delete(key []byte) error {
	if len(key) > art.MaxKeyLen {
		return art.ErrKeyTooLong
	}
	l := ix.Load()
	l.m.tree.InsertTombstone(key)
	l.Done()
	return nil
}

// Get returns the RID for key. ok is false when the key is absent or
// deleted.
func (ix *Index) Get(key []byte) (rid uint64, ok bool, err error) {
	mem, l := ix.acquire()
	defer l.unref()
	if rid, found, tomb := mem.Search(key); found {
		return rid, !tomb, nil
	}
	for _, cp := range l.comps {
		rid, found, tomb, err := cp.c.Search(key)
		if err != nil {
			return 0, false, err
		}
		if found {
			return rid, !tomb, nil
		}
	}
	return 0, false, nil
}

// Entry is a key/RID pair produced by Scan.
type Entry = art.Entry

// Scan visits live entries with from <= key < to in ascending key order,
// resolving duplicates newest-component-wins and suppressing tombstones.
// The key handed to fn is valid only during the call.
func (ix *Index) Scan(from, to []byte, fn func(key []byte, rid uint64) bool) error {
	mem, l := ix.acquire()
	defer l.unref()
	comps := l.comps

	if len(comps) == 0 {
		// Fast path: only the in-memory component exists (no freeze has
		// happened); stream directly without collecting.
		mem.Scan(from, to, func(k []byte, rid uint64, tomb bool) bool {
			if tomb {
				return true
			}
			return fn(k, rid)
		})
		return nil
	}

	// Collect the range from every component (each internally sorted).
	lists := make([][]Entry, 0, len(comps)+1)
	var memList []Entry
	mem.Scan(from, to, func(k []byte, rid uint64, tomb bool) bool {
		memList = append(memList, Entry{Key: append([]byte(nil), k...), RID: rid, Tomb: tomb})
		return true
	})
	lists = append(lists, memList)
	for _, cp := range comps {
		var l []Entry
		if err := cp.c.Scan(from, to, func(k []byte, rid uint64, tomb bool) bool {
			l = append(l, Entry{Key: append([]byte(nil), k...), RID: rid, Tomb: tomb})
			return true
		}); err != nil {
			return err
		}
		lists = append(lists, l)
	}
	for _, e := range mergeLists(lists) {
		if e.Tomb {
			continue
		}
		if !fn(e.Key, e.RID) {
			return nil
		}
	}
	return nil
}

// mergeLists merges sorted entry lists; lists[0] is newest and wins ties.
func mergeLists(lists [][]Entry) []Entry {
	// Simple k-way merge with positional preference; k is small (the
	// component count is bounded by merging).
	pos := make([]int, len(lists))
	var out []Entry
	for {
		best := -1
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if best == -1 || bytes.Compare(l[pos[i]].Key, lists[best][pos[best]].Key) < 0 {
				best = i
			}
		}
		if best == -1 {
			return out
		}
		winner := lists[best][pos[best]]
		// Advance every list sharing this key; the lowest list index
		// (newest component) wins.
		for i, l := range lists {
			if pos[i] < len(l) && bytes.Equal(l[pos[i]].Key, winner.Key) {
				if i < best {
					winner = l[pos[i]]
					best = i
				}
				pos[i]++
			}
		}
		out = append(out, winner)
	}
}

// MemLen returns the entry count of the in-memory component.
func (ix *Index) MemLen() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.mem.tree.Len()
}

// Components returns the number of read-only components.
func (ix *Index) Components() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.comps.comps)
}

// Freeze serializes the in-memory component to a fresh PLog, pushes it onto
// the read-only list and installs an empty in-memory component. Concurrent
// writers may race a freeze: entries inserted into the old tree after
// serialization begins would be lost, so the swap happens first and the old
// tree is serialized once quiescent.
func (ix *Index) Freeze() error {
	if ix.cfg.Service == nil {
		return ErrNoService
	}
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()

	ix.mu.Lock()
	old := ix.mem
	if old.tree.Empty() {
		ix.mu.Unlock()
		return nil
	}
	ix.mem = &memComp{tree: art.New()}
	ix.mu.Unlock()
	// Wait for in-flight writers pinned to the retired tree; serializing
	// before they land would lose their entries.
	for old.writers.Load() != 0 {
		runtime.Gosched()
	}

	plog, err := ix.cfg.Service.Create(ix.cfg.Tier)
	if err != nil {
		return err
	}
	res, err := art.SerializeTree(old.tree, plog)
	if err != nil {
		return err
	}
	plog.Seal()
	comp, err := art.OpenComponent(plog.Mmap(), res)
	if err != nil {
		return err
	}
	ix.mu.Lock()
	oldList := ix.comps
	ix.comps = newCompList(ix.cfg.Service,
		append([]*component{{c: comp, plog: plog, res: res}}, oldList.comps...))
	ix.mu.Unlock()
	oldList.unref() // no dead PLogs: freeze only prepends
	return nil
}

// Merge folds all read-only components into a single new component,
// dropping tombstones (the result is the oldest component, so nothing
// remains for a tombstone to mask). Constant memory modulo the key/RID
// stream: inputs are iterated in place and the output is streamed through
// the sorted builder.
func (ix *Index) Merge() error {
	if ix.cfg.Service == nil {
		return ErrNoService
	}
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()

	ix.mu.RLock()
	comps := append([]*component(nil), ix.comps.comps...)
	ix.mu.RUnlock()
	if len(comps) < 2 {
		return nil
	}
	its := make([]*art.CompIter, len(comps))
	for i, cp := range comps {
		its[i] = cp.c.Iter()
	}
	merged, err := mergeIterators(its)
	if err != nil {
		return err
	}
	// Drop tombstones: this merge produces the oldest component.
	live := merged[:0]
	for _, e := range merged {
		if !e.Tomb {
			live = append(live, e)
		}
	}
	plog, err := ix.cfg.Service.Create(ix.cfg.Tier)
	if err != nil {
		return err
	}
	res, err := art.BuildFromSorted(live, plog)
	if err != nil {
		return err
	}
	plog.Seal()
	comp, err := art.OpenComponent(plog.Mmap(), res)
	if err != nil {
		return err
	}
	var dead []*srss.PLog
	for _, cp := range comps {
		dead = append(dead, cp.plog)
	}
	ix.mu.Lock()
	old := ix.comps
	// Components frozen after the snapshot stay in front of the merged one.
	keep := len(old.comps) - len(comps)
	ix.comps = newCompList(ix.cfg.Service,
		append(old.comps[:keep:keep], &component{c: comp, plog: plog, res: res}))
	ix.mu.Unlock()
	// The merged-away PLogs are reclaimed once the last reader of any list
	// still referencing them drops its pin.
	old.dead.Store(&dead)
	old.unref()
	return nil
}

// mergeIterators k-way merges component iterators; its[0] is newest and
// wins duplicate keys.
func mergeIterators(its []*art.CompIter) ([]Entry, error) {
	cur := make([]*Entry, len(its))
	advance := func(i int) error {
		e, ok := its[i].Next()
		if !ok {
			if err := its[i].Err(); err != nil {
				return err
			}
			cur[i] = nil
			return nil
		}
		cur[i] = &e
		return nil
	}
	for i := range its {
		if err := advance(i); err != nil {
			return nil, err
		}
	}
	var out []Entry
	for {
		best := -1
		for i, e := range cur {
			if e == nil {
				continue
			}
			if best == -1 || bytes.Compare(e.Key, cur[best].Key) < 0 {
				best = i
			}
		}
		if best == -1 {
			return out, nil
		}
		winner := *cur[best]
		key := append([]byte(nil), winner.Key...)
		winner.Key = key
		for i := range cur {
			if cur[i] != nil && bytes.Equal(cur[i].Key, key) {
				if i < best {
					winner = *cur[i]
					winner.Key = key
				}
				if err := advance(i); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, winner)
	}
}

// Metas returns persistence metadata for all read-only components (newest
// first) for inclusion in engine manifests.
func (ix *Index) Metas() []ComponentMeta {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]ComponentMeta, 0, len(ix.comps.comps))
	for _, cp := range ix.comps.comps {
		out = append(out, ComponentMeta{
			PLogID:  cp.plog.ID(),
			RootOff: cp.res.RootOff,
			Length:  cp.res.Length,
			Count:   cp.res.Count,
		})
	}
	return out
}

// Attach re-opens a persisted component from its metadata and appends it to
// the end of the read-only list (oldest position). Recovery reattaches
// components oldest-last by calling Attach in newest-to-oldest order.
func (ix *Index) Attach(meta ComponentMeta) error {
	if ix.cfg.Service == nil {
		return ErrNoService
	}
	plog, err := ix.cfg.Service.Open(meta.PLogID)
	if err != nil {
		return err
	}
	res := art.SerializeResult{RootOff: meta.RootOff, Length: meta.Length, Count: meta.Count}
	comp, err := art.OpenComponent(plog.Mmap(), res)
	if err != nil {
		return err
	}
	ix.mu.Lock()
	old := ix.comps
	ix.comps = newCompList(ix.cfg.Service, append(append([]*component(nil), old.comps...),
		&component{c: comp, plog: plog, res: res}))
	ix.mu.Unlock()
	old.unref()
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

// String summarizes the index shape.
func (ix *Index) String() string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return fmt.Sprintf("index{mem:%d entries, components:%d}", ix.mem.tree.Len(), len(ix.comps.comps))
}
