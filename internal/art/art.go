// Package art implements the concurrent adaptive radix tree (ART) HiEngine
// uses as its index structure (Section 4.5, building on Leis et al., ICDE
// 2013). A tree lives in memory only: the checkpoint image carries every
// index key and recovery re-inserts them, so nothing here is serialized.
//
// Values are 64-bit record IDs: HiEngine indexes store only key->RID
// mappings, never record data. An entry is present or absent: Delete
// removes it from its node, and a node the removal leaves with no entry
// leaves the tree (see Delete).
//
// A key's value sits in the child slot of its parent node that the key's
// last byte selects -- Leis et al.'s combined pointer/value slots -- whenever
// the key ends exactly at that slot's edge, which under fixed-width keys is
// every slot of a bottom node. Prefixes are stored whole, so the path to a
// slot spells its key and nothing else is kept. A leaf object, holding its
// own copy of the key, remains for three cases: a lone key whose bytes go on
// past its slot (lazy expansion), a key ending exactly at an inner node (the
// node's terminal leaf), and a value too large for a slot word.
//
// Concurrency follows optimistic lock coupling: every inner node carries a
// version-lock word, readers proceed lock-free and validate versions,
// writers lock only the nodes they modify and restart on conflict. A slot's
// (child, value) pair changes only under its node's write lock, and a reader
// validates the node's version after reading both. Leaves are immutable and
// replaced through their parent. A Node16's or Node48's count is its number
// of entries: a removal moves the node's last slot into the hole. The
// classic Node4 and Node16 size classes are coalesced into one 16-way class
// (Go's allocator size classes make a separate 4-way node unprofitable);
// Node48 and Node256 are as in the paper.
//
// A caller whose keys arrive nearly in order -- recovery's workers, a
// worker's inserts -- passes a Hint to InsertHint and SearchHint. It
// remembers the last few nodes the caller filled, each with the key bytes
// spelling its path, and a key one byte longer than such a path goes to
// that node's slot under the node's own lock: one node visit instead of a
// descent from the root. A live node is safe to reuse because growth and a
// prefix split replace a node by a copy and mark the original obsolete, a
// removal that empties a node unlinks it and marks it obsolete, and nothing
// else moves a node, so a live node's path still spells the key. The hinted
// path only puts a value word in an empty slot of a node that is not full,
// or replaces one; everything else, growth and splits included, is the
// descent's, so a hint never changes the tree's shape.
package art

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
)

// MaxKeyLen bounds index keys.
const MaxKeyLen = 2048

// ErrKeyTooLong is returned for keys exceeding MaxKeyLen.
var ErrKeyTooLong = errors.New("art: key exceeds MaxKeyLen")

// kind discriminates node layouts.
type kind uint8

const (
	kLeaf kind = iota
	k16
	k48
	k256
)

// node is a leaf or an inner node. A leaf is the first three fields and
// nothing else: it is immutable after construction, so everything only an
// inner node needs sits behind the one embedded pointer (nil in a leaf).
type node struct {
	kind kind
	rid  uint64
	key  []byte // the leaf's full key

	*inner
}

// inner is an inner node's state, protected by its OLC version lock.
type inner struct {
	state  atomic.Uint64        // OLC: bit0 obsolete, bit1 locked, bits2+ version
	prefix []byte               // compressed path; immutable
	term   atomic.Pointer[node] // leaf for a key ending exactly at this node
	b16    *body16
	b48    *body48
	b256   *body256
}

// Slot i of a body is children[i] and vals[i]: a child node, an inline value
// word, or neither (an empty Node256 slot). vals is allocated, under the
// node's write lock, when its first inline value arrives, and so are a
// Node48's and a Node256's children when their first child does: a bottom
// node of dense fixed-width keys holds only values and has no child array.
// A Node48's or Node256's array goes again with its last entry (shed). A
// reader that finds no array reads an empty half-slot.
type body16 struct {
	count    atomic.Int32
	keys     [16]atomic.Uint32 // key bytes, unsorted; only [0,count) valid
	children [16]atomic.Pointer[node]
	vals     atomic.Pointer[[16]atomic.Uint64]
}

type body48 struct {
	count    atomic.Int32
	index    [256]atomic.Int32 // 0 = empty, else slot+1
	children atomic.Pointer[[48]atomic.Pointer[node]]
	vals     atomic.Pointer[[48]atomic.Uint64]
}

type body256 struct {
	children atomic.Pointer[[256]atomic.Pointer[node]]
	vals     atomic.Pointer[[256]atomic.Uint64]
}

// lazy returns the array p points at, nil when there is none yet unless
// alloc is set: then it allocates and publishes one. Only a writer holding
// the node's lock, or building a node no reader can reach yet, sets alloc.
func lazy[A any](p *atomic.Pointer[A], alloc bool) *A {
	a := p.Load()
	if a == nil && alloc {
		a = new(A)
		p.Store(a)
	}
	return a
}

// An inline value word is inlineBit | rid; 0 is an empty slot.
const inlineBit uint64 = 1 << 63

// slotWord is key's entry as the value word of the slot at depth d, when key
// ends at that slot's edge and rid fits beside the flag bit.
func slotWord(key []byte, d int, rid uint64) (uint64, bool) {
	if len(key) != d+1 || rid >= inlineBit {
		return 0, false
	}
	return inlineBit | rid, true
}

func wordRID(w uint64) uint64 { return w &^ inlineBit }

// leafInlineKey is the longest key stored in its leaf's own allocation: a
// fixed-width column or two (an encoded int is 9 bytes), which is what most
// primary keys are.
const leafInlineKey = 16

func newLeaf(key []byte, rid uint64) *node {
	if len(key) <= leafInlineKey {
		l := &struct {
			node
			buf [leafInlineKey]byte
		}{node: node{kind: kLeaf, rid: rid}}
		l.key = l.buf[:copy(l.buf[:], key)]
		return &l.node
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &node{kind: kLeaf, key: k, rid: rid}
}

// newEntry is key's entry for the slot at depth d: a value word when
// slotWord allows one, else a fresh leaf.
func newEntry(key []byte, d int, rid uint64) (*node, uint64) {
	if w, ok := slotWord(key, d, rid); ok {
		return nil, w
	}
	return newLeaf(key, rid), 0
}

func newInner(k kind, prefix []byte) *node {
	n := &struct {
		node
		in inner
	}{node: node{kind: k}}
	n.inner = &n.in
	n.prefix = append([]byte(nil), prefix...)
	switch k {
	case k16:
		n.b16 = &body16{}
	case k48:
		n.b48 = &body48{}
	case k256:
		n.b256 = &body256{}
	}
	return &n.node
}

// --- OLC version lock ---------------------------------------------------

const (
	obsoleteBit uint64 = 1
	lockedBit   uint64 = 2
	versionInc  uint64 = 4
)

// rLock spins until the node is unlocked and returns the observed version.
// ok is false when the node is obsolete (caller restarts).
func (n *node) rLock() (v uint64, ok bool) {
	for i := 0; ; i++ {
		v = n.state.Load()
		if v&lockedBit == 0 {
			return v, v&obsoleteBit == 0
		}
		if i&0x3f == 0x3f {
			runtime.Gosched()
		}
	}
}

// rValidate reports whether the node is still at version v.
func (n *node) rValidate(v uint64) bool { return n.state.Load() == v }

// upgrade attempts to convert an optimistic read at version v into a write
// lock.
func (n *node) upgrade(v uint64) bool {
	return n.state.CompareAndSwap(v, v|lockedBit)
}

// unlock releases a write lock, bumping the version.
func (n *node) unlock() {
	n.state.Add(versionInc - lockedBit)
}

// unlockObsolete releases a write lock and marks the node dead.
func (n *node) unlockObsolete() {
	n.state.Add(versionInc - lockedBit + obsoleteBit)
}

// --- slot access (callers hold a read version or the write lock) ---------

// find returns the index of byte b's slot, or -1 when b has none. Every byte
// has a Node256 slot, empty or not.
func (n *node) find(b byte) int {
	switch n.kind {
	case k16:
		cnt := int(n.b16.count.Load())
		for i := 0; i < cnt && i < 16; i++ {
			if byte(n.b16.keys[i].Load()) == b {
				return i
			}
		}
	case k48:
		return int(n.b48.index[b].Load()) - 1
	case k256:
		return int(b)
	}
	return -1
}

// children returns n's child array, nil before a Node48's or Node256's first
// child unless alloc is set (see lazy).
func (n *node) children(alloc bool) []atomic.Pointer[node] {
	switch n.kind {
	case k16:
		return n.b16.children[:]
	case k48:
		if cs := lazy(&n.b48.children, alloc); cs != nil {
			return cs[:]
		}
	case k256:
		if cs := lazy(&n.b256.children, alloc); cs != nil {
			return cs[:]
		}
	}
	return nil
}

// vals returns n's value array, nil before its first inline value unless
// alloc is set (see lazy).
func (n *node) vals(alloc bool) []atomic.Uint64 {
	switch n.kind {
	case k16:
		if vs := lazy(&n.b16.vals, alloc); vs != nil {
			return vs[:]
		}
	case k48:
		if vs := lazy(&n.b48.vals, alloc); vs != nil {
			return vs[:]
		}
	case k256:
		if vs := lazy(&n.b256.vals, alloc); vs != nil {
			return vs[:]
		}
	}
	return nil
}

// slot returns what byte b's slot holds: a child, a value word, or neither.
func (n *node) slot(b byte) (c *node, w uint64) {
	i := n.find(b)
	if i < 0 {
		return nil, 0
	}
	if cs := n.children(false); cs != nil {
		c = cs[i].Load()
	}
	if vs := n.vals(false); vs != nil {
		w = vs[i].Load()
	}
	return c, w
}

// fill writes slot i: child c or value word w, the other half cleared. An
// array that does not exist yet is allocated only for a non-zero half, and
// one the cleared half was the last entry of is released (shed). Caller
// holds the write lock.
func (n *node) fill(i int, c *node, w uint64) {
	cleared := false
	if cs := n.children(c != nil); cs != nil {
		cleared = c == nil && cs[i].Load() != nil
		cs[i].Store(c)
	}
	if vs := n.vals(w != 0); vs != nil {
		cleared = cleared || w == 0 && vs[i].Load() != 0
		vs[i].Store(w)
	}
	if cleared {
		n.shed(i)
	}
}

// shed releases a Node48's or Node256's child array, and its value array,
// when it holds no entry any more: the inverse of lazy, after a write that
// emptied half of slot i. It looks past i first, where keys removed in
// ascending order leave their successor. Caller holds the write lock; a
// reader that loaded a released array fails its validation.
func (n *node) shed(i int) {
	slots := 256
	switch n.kind {
	case k16:
		return // its children are in its body, and its values at most 128 B
	case k48:
		slots = int(n.b48.count.Load()) // its entries are slots [0,count)
	}
	cs, vs := n.children(false), n.vals(false)
	keepC, keepV := cs == nil, vs == nil
	for j := 1; j <= slots && !(keepC && keepV); j++ {
		k := (i + j) % slots
		keepC = keepC || cs[k].Load() != nil
		keepV = keepV || vs[k].Load() != 0
	}
	switch n.kind {
	case k48:
		if !keepC {
			n.b48.children.Store(nil)
		}
		if !keepV {
			n.b48.vals.Store(nil)
		}
	case k256:
		if !keepC {
			n.b256.children.Store(nil)
		}
		if !keepV {
			n.b256.vals.Store(nil)
		}
	}
}

// full reports whether addSlot would overflow the node's size class.
func (n *node) full() bool {
	switch n.kind {
	case k16:
		return n.b16.count.Load() >= 16
	case k48:
		return n.b48.count.Load() >= 48
	default:
		return false
	}
}

// addSlot gives byte b a slot holding child c or value word w. Caller holds
// the write lock and has checked !full() and that b's slot is empty.
func (n *node) addSlot(b byte, c *node, w uint64) {
	switch n.kind {
	case k16:
		i := n.b16.count.Load()
		n.b16.keys[i].Store(uint32(b))
		n.fill(int(i), c, w)
		n.b16.count.Store(i + 1) // publish after the slot is complete
	case k48:
		i := n.b48.count.Add(1) - 1
		n.fill(int(i), c, w)
		n.b48.index[b].Store(i + 1)
	case k256:
		n.fill(int(b), c, w)
	}
}

// setSlot replaces what byte b's slot holds. Caller holds the write lock;
// the slot must exist.
func (n *node) setSlot(b byte, c *node, w uint64) {
	n.fill(n.find(b), c, w)
}

// removeSlot empties byte b's slot. A Node16 or Node48 forgets b and moves
// its last slot into the hole, so its count stays its number of entries and
// a later addSlot registers b once; an array left with no entry goes (shed).
// Caller holds the write lock; the slot must hold an entry.
func (n *node) removeSlot(b byte) {
	i, last := n.find(b), int(b)
	switch n.kind {
	case k16:
		last = int(n.b16.count.Load()) - 1
		n.b16.keys[i].Store(n.b16.keys[last].Load())
		n.b16.count.Store(int32(last))
	case k48:
		last = int(n.b48.count.Load()) - 1
		for x := 0; x < 256 && i != last; x++ {
			if n.b48.index[x].Load() == int32(last+1) {
				n.b48.index[x].Store(int32(i + 1))
				break
			}
		}
		n.b48.index[b].Store(0)
		n.b48.count.Store(int32(last))
	}
	if cs := n.children(false); cs != nil {
		cs[i].Store(cs[last].Load())
		cs[last].Store(nil)
	}
	if vs := n.vals(false); vs != nil {
		vs[i].Store(vs[last].Load())
		vs[last].Store(0)
	}
	n.shed(i)
}

// keepsOther reports whether n holds an entry besides e, the one a removal
// takes: byte e's slot, or n's terminal leaf when e < 0. A Node16's or
// Node48's count answers; a Node256 looks for an occupied slot, starting
// past e, where keys removed in ascending order leave their successor. A
// lock-free reader validates n's version afterwards.
func (n *node) keepsOther(e int) bool {
	var held int32 // the slots e accounts for
	if e >= 0 {
		if n.term.Load() != nil {
			return true
		}
		held = 1
	}
	switch n.kind {
	case k16:
		return n.b16.count.Load() > held
	case k48:
		return n.b48.count.Load() > held
	}
	cs, vs := n.children(false), n.vals(false)
	for i := 1; i <= 256; i++ {
		j := (e + i) & 255
		if j != e && (cs != nil && cs[j].Load() != nil || vs != nil && vs[j].Load() != 0) {
			return true
		}
	}
	return false
}

// slotEntry is one occupied slot: its byte, and its child or value word.
type slotEntry struct {
	b byte
	c *node
	w uint64
}

// appendSlots appends n's occupied slots to dst in ascending byte order. A
// lock-free reader validates n's version afterwards.
func (n *node) appendSlots(dst []slotEntry) []slotEntry {
	cs, vs := n.children(false), n.vals(false)
	add := func(b byte, i int) {
		e := slotEntry{b: b}
		if cs != nil {
			e.c = cs[i].Load()
		}
		if vs != nil {
			e.w = vs[i].Load()
		}
		if e.c != nil || e.w != 0 {
			dst = append(dst, e)
		}
	}
	switch n.kind {
	case k16:
		base := len(dst)
		cnt := int(n.b16.count.Load())
		for i := 0; i < cnt && i < 16; i++ {
			add(byte(n.b16.keys[i].Load()), i)
		}
		// Node16 keys are unsorted: insertion-sort the few of them.
		for es, i := dst[base:], 1; i < len(es); i++ {
			for j := i; j > 0 && es[j-1].b > es[j].b; j-- {
				es[j-1], es[j] = es[j], es[j-1]
			}
		}
	case k48:
		for b := 0; b < 256; b++ {
			if s := n.b48.index[b].Load(); s != 0 {
				add(byte(b), int(s-1))
			}
		}
	case k256:
		for b := 0; b < 256; b++ {
			add(byte(b), b)
		}
	}
	return dst
}

// copyAs returns a copy of n in size class k with prefix p (caller holds n's
// write lock): its terminal leaf and slots, values included. The copy is
// unlocked. Growth and a prefix split replace a node by a copy and mark the
// original obsolete, so a live node keeps its prefix and its place in the
// tree for as long as it lives.
func (n *node) copyAs(k kind, p []byte) *node {
	c := newInner(k, p)
	c.term.Store(n.term.Load())
	var buf [256]slotEntry
	for _, e := range n.appendSlots(buf[:0]) {
		c.addSlot(e.b, e.c, e.w)
	}
	return c
}

// place stores key's entry in n, a new node no reader can reach yet whose
// path ends at depth d: as its terminal leaf when key ends there, else in
// slot key[d]. l, when not nil, is an existing leaf holding the entry.
func (n *node) place(key []byte, d int, rid uint64, l *node) {
	if d == len(key) {
		if l == nil {
			l = newLeaf(key, rid)
		}
		n.term.Store(l)
		return
	}
	if w, ok := slotWord(key, d, rid); ok {
		n.addSlot(key[d], nil, w)
		return
	}
	if l == nil {
		l = newLeaf(key, rid)
	}
	n.addSlot(key[d], l, 0)
}

// --- Tree ----------------------------------------------------------------

// Tree is a concurrent ART mapping byte-string keys to RIDs. The zero value
// is not usable; call New.
type Tree struct {
	root *node // permanent k256 root with empty prefix; never replaced
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: newInner(k256, nil)}
}

// Insert upserts key -> rid.
func (t *Tree) Insert(key []byte, rid uint64) {
	t.insert(key, rid, nil)
}

// InsertHint is Insert, first trying the nodes h remembers (see Hint), and
// remembering the node key's value lands in.
func (t *Tree) InsertHint(key []byte, rid uint64, h *Hint) {
	t.insert(key, rid, h)
}

// Search returns the RID for key; found is false when the key is absent.
func (t *Tree) Search(key []byte) (rid uint64, found bool) {
	return t.SearchHint(key, nil)
}

// SearchHint is Search, first trying the nodes h remembers (see Hint).
func (t *Tree) SearchHint(key []byte, h *Hint) (rid uint64, found bool) {
	if rid, found, ok := t.searchHinted(key, h); ok {
		return rid, found
	}
	for {
		rid, found, ok := t.search(key)
		if ok {
			return rid, found
		}
	}
}

// Delete removes key's entry, when it has one. A node the removal leaves with
// no entry is unlinked from its parent, and so is each ancestor that held
// nothing but the path to it: all of them are locked beside the node above
// them that keeps an entry, and each is marked obsolete as its lock is
// released, as growth retires a node. So no node below the root is ever
// empty, and a writer holding a pointer to an unlinked node finds it
// obsolete instead of writing into it.
func (t *Tree) Delete(key []byte) {
	for !t.remove(key) {
	}
}

// link is a node remove unlinks, with the version it read there.
type link struct {
	n *node
	v uint64
}

// remove is one OLC attempt at Delete; false means restart. Down key's path
// it keeps top, the lowest node that holds an entry besides the one the
// removal takes, with the entry it empties there (te: a slot's byte, or -1
// for the terminal leaf), and chain, the nodes below top, each holding
// nothing but the path to key's entry. Locking them all at the versions the
// descent read validates every read it made in them.
func (t *Tree) remove(key []byte) bool {
	var buf [8]link // a longer chain spills to the heap
	chain := buf[:0]
	n := t.root
	v, alive := n.rLock()
	if !alive {
		return false
	}
	top, tv, te := n, v, 0
	for depth := 0; ; depth++ {
		p := n.prefix
		if matchLen(p, key[depth:]) < len(p) {
			return n.rValidate(v) // absent: key diverges inside the prefix
		}
		depth += len(p)
		e, next := -1, (*node)(nil) // key's slot in n, or its terminal leaf
		if depth == len(key) {
			if n.term.Load() == nil {
				return n.rValidate(v)
			}
		} else {
			c, w := n.slot(key[depth])
			switch {
			case w != 0 && depth+1 == len(key): // key's inline value
			case c != nil && c.kind != kLeaf:
				next = c
			case c == nil || w != 0 || !bytes.Equal(c.key, key):
				return n.rValidate(v) // absent
			default: // key's leaf
			}
			e = int(key[depth])
		}
		if n == t.root || n.keepsOther(e) {
			top, tv, te, chain = n, v, e, chain[:0]
		} else {
			chain = append(chain, link{n, v})
		}
		if next == nil {
			break // n holds key's entry
		}
		if !n.rValidate(v) {
			return false
		}
		n = next
		if v, alive = n.rLock(); !alive {
			return false
		}
	}
	if !top.upgrade(tv) {
		return false
	}
	for i, l := range chain {
		if !l.n.upgrade(l.v) {
			for _, m := range chain[:i] {
				m.n.unlock()
			}
			top.unlock()
			return false
		}
	}
	if te < 0 {
		top.term.Store(nil)
	} else {
		top.removeSlot(byte(te))
	}
	for _, l := range chain {
		l.n.unlockObsolete()
	}
	top.unlock()
	return true
}

// --- Hint ----------------------------------------------------------------

// hintWays is how many nodes a Hint remembers: one per index a row has, for
// the usual table, and two interleaved key ranges of one index.
const hintWays = 4

// Hint remembers the last few nodes its caller filled, each with its tree
// and the key bytes that spell the node's path. A key one byte longer than a
// remembered path, that matches it, has its slot in that node, which a
// hinted insert or search visits alone instead of descending from the root.
// Only a value word goes in that way -- into an empty slot of a node that is
// not full, or over a value word -- and a remembered node found obsolete is
// forgotten (the package comment says why a live one is safe to reuse).
//
// A Hint is not safe for concurrent use. Its zero value is ready.
type Hint struct {
	ways [hintWays]hintWay
	tick uint64
}

// hintWay is one remembered node; n == nil is an empty way.
type hintWay struct {
	t    *Tree
	n    *node
	path []byte // the key bytes that spell n's path, in the way's own buffer
	used uint64 // h.tick at its last use: the least recent is replaced
}

// node returns the node h remembers for key in t -- the node whose path is
// key minus its last byte -- and its read version, when there is one and it
// is live. A remembered node found obsolete is forgotten.
func (h *Hint) node(t *Tree, key []byte) (*node, uint64) {
	if h == nil || len(key) == 0 {
		return nil, 0
	}
	for i := range h.ways {
		w := &h.ways[i]
		if w.n == nil || w.t != t || !bytes.Equal(w.path, key[:len(key)-1]) {
			continue
		}
		v, alive := w.n.rLock()
		if !alive {
			*w = hintWay{path: w.path[:0]}
			return nil, 0
		}
		h.tick++
		w.used = h.tick
		return w.n, v
	}
	return nil, 0
}

// remember records that key, in t, ended in a slot of n at depth d, when it
// did: n's path is key[:d]. It takes the way remembering that path -- at
// most one live node has it, so a node there is n or one n replaced -- or
// else the least recently used one.
func (h *Hint) remember(t *Tree, n *node, key []byte, d int) {
	if h == nil || len(key) != d+1 {
		return
	}
	w := &h.ways[0]
	for i := range h.ways {
		if x := &h.ways[i]; x.n != nil && x.t == t && bytes.Equal(x.path, key[:d]) {
			w = x
			break
		}
		if h.ways[i].used < w.used {
			w = &h.ways[i]
		}
	}
	h.tick++
	w.t, w.n, w.path, w.used = t, n, append(w.path[:0], key[:d]...), h.tick
}

// insertHinted stores value word w for key in the node h remembers for it,
// and reports whether it did; when not, the descent does. It takes an empty
// slot of a node that is not full, or a slot holding a value word (upsert);
// a child, a leaf, a full node or a lost upgrade is the descent's.
func (t *Tree) insertHinted(key []byte, w uint64, h *Hint) bool {
	n, v := h.node(t, key)
	if n == nil {
		return false
	}
	b := key[len(key)-1]
	c, old := n.slot(b)
	if c != nil || (old == 0 && n.full()) || !n.upgrade(v) {
		return false
	}
	if old == 0 {
		n.addSlot(b, nil, w)
	} else {
		n.setSlot(b, nil, w)
	}
	n.unlock()
	return true
}

// searchHinted looks key up in the node h remembers for it: a value word is
// a hit and an empty slot is absent. ok is false when there is no such node,
// or its slot holds a child or a leaf: the descent answers.
func (t *Tree) searchHinted(key []byte, h *Hint) (rid uint64, found, ok bool) {
	n, v := h.node(t, key)
	if n == nil {
		return 0, false, false
	}
	c, w := n.slot(key[len(key)-1])
	if c != nil || !n.rValidate(v) {
		return 0, false, false
	}
	return wordRID(w), w != 0, true
}

func matchLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func (t *Tree) search(key []byte) (rid uint64, found, ok bool) {
	n := t.root
	v, alive := n.rLock()
	if !alive {
		return 0, false, false
	}
	depth := 0
	for {
		p := n.prefix
		m := matchLen(p, key[depth:])
		if m < len(p) {
			if !n.rValidate(v) {
				return 0, false, false
			}
			return 0, false, true // diverges inside the prefix
		}
		depth += len(p)
		if depth == len(key) {
			l := n.term.Load()
			if !n.rValidate(v) {
				return 0, false, false
			}
			if l == nil {
				return 0, false, true
			}
			return l.rid, true, true
		}
		next, w := n.slot(key[depth])
		if !n.rValidate(v) {
			return 0, false, false
		}
		switch {
		case w != 0:
			// The path spells the value's key: it is key when key ends here.
			if depth+1 == len(key) {
				return wordRID(w), true, true
			}
			return 0, false, true
		case next == nil:
			return 0, false, true
		case next.kind == kLeaf:
			if bytes.Equal(next.key, key) {
				return next.rid, true, true
			}
			return 0, false, true
		}
		depth++
		n = next
		v, alive = n.rLock()
		if !alive {
			return 0, false, false
		}
	}
}

// insert is the OLC upsert. With a hint it first tries the node h remembers
// for key (insertHinted), and remembers the node key's value lands in.
func (t *Tree) insert(key []byte, rid uint64, h *Hint) {
	if w, ok := slotWord(key, len(key)-1, rid); ok && t.insertHinted(key, w, h) {
		return
	}
restart:
	n := t.root
	v, alive := n.rLock()
	if !alive {
		goto restart
	}
	{
		var parent *node
		var pv uint64
		var parentByte byte
		depth := 0
		for {
			p := n.prefix
			m := matchLen(p, key[depth:])
			if m < len(p) {
				// Key diverges inside n's compressed path: split the
				// prefix by interposing a new inner node over a copy of
				// n with the rest of the prefix. Needs the parent (to
				// swap the edge) and n (to retire it).
				if parent == nil {
					goto restart // root has an empty prefix; cannot happen
				}
				if !parent.upgrade(pv) {
					goto restart
				}
				if !n.upgrade(v) {
					parent.unlock()
					goto restart
				}
				ni := newInner(k16, p[:m])
				ni.addSlot(p[m], n.copyAs(n.kind, p[m+1:]), 0)
				ni.place(key, depth+m, rid, nil)
				parent.setSlot(parentByte, ni, 0)
				n.unlockObsolete()
				parent.unlock()
				h.remember(t, ni, key, depth+m)
				return
			}
			depth += len(p)
			if depth == len(key) {
				// Key terminates at this node.
				if !n.upgrade(v) {
					goto restart
				}
				n.term.Store(newLeaf(key, rid))
				n.unlock()
				return
			}
			b := key[depth]
			next, w := n.slot(b)
			if !n.rValidate(v) {
				goto restart
			}
			if next == nil && w == 0 {
				c, w := newEntry(key, depth, rid)
				if n.full() {
					// Grow n into the next size class; the copy replaces
					// n under the parent's edge.
					if parent == nil {
						goto restart // root is k256 and never full
					}
					if !parent.upgrade(pv) {
						goto restart
					}
					if !n.upgrade(v) {
						parent.unlock()
						goto restart
					}
					big := n.copyAs(n.kind+1, n.prefix) // k16 -> k48 -> k256
					big.addSlot(b, c, w)
					parent.setSlot(parentByte, big, 0)
					n.unlockObsolete()
					parent.unlock()
					h.remember(t, big, key, depth)
					return
				}
				if !n.upgrade(v) {
					goto restart
				}
				n.addSlot(b, c, w)
				n.unlock()
				h.remember(t, n, key, depth)
				return
			}
			if w != 0 || next.kind == kLeaf {
				// The slot holds one entry: an inline value, whose key is
				// the path to the slot, or a leaf.
				okey, orid, oleaf := key[:depth+1], wordRID(w), next
				if w == 0 {
					okey, orid = next.key, next.rid
				}
				if !n.upgrade(v) {
					goto restart
				}
				if bytes.Equal(okey, key) {
					c, w := newEntry(key, depth, rid)
					n.setSlot(b, c, w)
					n.unlock()
					h.remember(t, n, key, depth)
					return
				}
				// Two distinct keys share the slot: push both under a
				// fresh inner node keyed past their common prefix. An
				// inline key ends at the slot, so it becomes the new
				// node's terminal leaf.
				common := matchLen(okey[depth+1:], key[depth+1:])
				d2 := depth + 1 + common
				ni := newInner(k16, key[depth+1:d2])
				ni.place(okey, d2, orid, oleaf)
				ni.place(key, d2, rid, nil)
				n.setSlot(b, ni, 0)
				n.unlock()
				h.remember(t, ni, key, d2)
				return
			}
			// Descend.
			parent, pv, parentByte = n, v, b
			depth++
			n = next
			v, alive = n.rLock()
			if !alive || !parent.rValidate(pv) {
				goto restart
			}
		}
	}
}
