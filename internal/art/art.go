// Package art implements the concurrent adaptive radix tree (ART) HiEngine
// uses as its baseline index structure (Section 4.5, building on Leis et
// al., ICDE 2013), together with the paper's LSM-like persistence support:
// trees can be serialized into SRSS PLogs in an append-only format, searched
// directly in their serialized (mmap'ed) form, and merged pairwise with the
// recursive node-merge algorithm of Section 4.5.
//
// Values are 64-bit record IDs: HiEngine indexes store only key->RID
// mappings, never record data, which is what keeps merges and compaction
// cheap. Deletion inserts a tombstone so that lookups do not fall through to
// stale entries in older read-only components; physical removal happens when
// components are merged.
//
// Concurrency follows optimistic lock coupling: every inner node carries a
// version-lock word, readers proceed lock-free and validate versions,
// writers lock only the nodes they modify and restart on conflict. Leaves
// are immutable and replaced through their parent. The classic Node4 and
// Node16 size classes are coalesced into one 16-way class (Go's allocator
// size classes make a separate 4-way node unprofitable); Node48 and Node256
// are as in the paper.
package art

import (
	"bytes"
	"runtime"
	"sync/atomic"
)

// kind discriminates node layouts.
type kind uint8

const (
	kLeaf kind = iota
	k16
	k48
	k256
)

// node is a leaf or an inner node. A leaf is the first four fields and
// nothing else: it is immutable after construction and there is one per
// indexed key, so everything only an inner node needs sits behind the one
// embedded pointer (nil in a leaf).
type node struct {
	kind kind
	tomb bool
	rid  uint64
	key  []byte // the leaf's full key

	*inner
}

// inner is an inner node's state, protected by its OLC version lock.
type inner struct {
	state  atomic.Uint64          // OLC: bit0 obsolete, bit1 locked, bits2+ version
	prefix atomic.Pointer[[]byte] // compressed path; never nil
	term   atomic.Pointer[node]   // leaf for a key ending exactly at this node
	b16    *body16
	b48    *body48
	b256   *body256
}

type body16 struct {
	count    atomic.Int32
	keys     [16]atomic.Uint32 // key bytes, unsorted; only [0,count) valid
	children [16]atomic.Pointer[node]
}

type body48 struct {
	count    atomic.Int32
	index    [256]atomic.Int32 // 0 = empty, else slot+1
	children [48]atomic.Pointer[node]
}

type body256 struct {
	count    atomic.Int32
	children [256]atomic.Pointer[node]
}

var emptyPrefix = []byte{}

// leafInlineKey is the longest key stored in its leaf's own allocation: a
// fixed-width column or two (an encoded int is 9 bytes), which is what most
// primary keys are.
const leafInlineKey = 16

func newLeaf(key []byte, rid uint64, tomb bool) *node {
	if len(key) <= leafInlineKey {
		l := &struct {
			node
			buf [leafInlineKey]byte
		}{node: node{kind: kLeaf, rid: rid, tomb: tomb}}
		l.key = l.buf[:copy(l.buf[:], key)]
		return &l.node
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &node{kind: kLeaf, key: k, rid: rid, tomb: tomb}
}

func newInner(k kind, prefix []byte) *node {
	n := &struct {
		node
		in inner
	}{node: node{kind: k}}
	n.inner = &n.in
	n.setPrefix(prefix)
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

func (n *node) loadPrefix() []byte {
	p := n.prefix.Load()
	if p == nil {
		return emptyPrefix
	}
	return *p
}

func (n *node) setPrefix(p []byte) {
	cp := make([]byte, len(p))
	copy(cp, p)
	n.prefix.Store(&cp)
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

// --- child access (callers hold a read version or the write lock) --------

// child returns the child for byte b, or nil.
func (n *node) child(b byte) *node {
	switch n.kind {
	case k16:
		cnt := int(n.b16.count.Load())
		for i := 0; i < cnt && i < 16; i++ {
			if byte(n.b16.keys[i].Load()) == b {
				return n.b16.children[i].Load()
			}
		}
		return nil
	case k48:
		s := n.b48.index[b].Load()
		if s == 0 {
			return nil
		}
		return n.b48.children[s-1].Load()
	case k256:
		return n.b256.children[b].Load()
	}
	return nil
}

// childCount returns the number of children (excluding the terminal leaf).
func (n *node) childCount() int {
	switch n.kind {
	case k16:
		return int(n.b16.count.Load())
	case k48:
		return int(n.b48.count.Load())
	case k256:
		return int(n.b256.count.Load())
	}
	return 0
}

// full reports whether addChild would overflow the node's size class.
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

// addChild inserts a child for byte b. Caller holds the write lock and has
// checked !full() and that b is absent.
func (n *node) addChild(b byte, c *node) {
	switch n.kind {
	case k16:
		i := n.b16.count.Load()
		n.b16.keys[i].Store(uint32(b))
		n.b16.children[i].Store(c)
		n.b16.count.Store(i + 1) // publish after the slot is complete
	case k48:
		i := n.b48.count.Add(1) - 1
		n.b48.children[i].Store(c)
		n.b48.index[b].Store(i + 1)
	case k256:
		n.b256.children[b].Store(c)
		n.b256.count.Add(1)
	}
}

// replaceChild swaps the child at byte b. Caller holds the write lock; b
// must exist.
func (n *node) replaceChild(b byte, c *node) {
	switch n.kind {
	case k16:
		cnt := int(n.b16.count.Load())
		for i := 0; i < cnt; i++ {
			if byte(n.b16.keys[i].Load()) == b {
				n.b16.children[i].Store(c)
				return
			}
		}
	case k48:
		s := n.b48.index[b].Load()
		if s != 0 {
			n.b48.children[s-1].Store(c)
		}
	case k256:
		n.b256.children[b].Store(c)
	}
}

// grown returns a copy of n in the next size class (caller holds n's write
// lock). The copy is unlocked and carries n's prefix and terminal leaf.
func (n *node) grown() *node {
	var big *node
	switch n.kind {
	case k16:
		big = newInner(k48, n.loadPrefix())
	case k48:
		big = newInner(k256, n.loadPrefix())
	default:
		return n
	}
	big.term.Store(n.term.Load())
	n.eachChild(func(b byte, c *node) bool {
		big.addChild(b, c)
		return true
	})
	return big
}

// eachChild visits children in ascending byte order. Caller must hold the
// write lock or be operating on a quiescent tree.
func (n *node) eachChild(fn func(b byte, c *node) bool) {
	switch n.kind {
	case k16:
		cnt := int(n.b16.count.Load())
		type kv struct {
			b byte
			c *node
		}
		var tmp [16]kv
		for i := 0; i < cnt; i++ {
			tmp[i] = kv{byte(n.b16.keys[i].Load()), n.b16.children[i].Load()}
		}
		s := tmp[:cnt]
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j-1].b > s[j].b; j-- {
				s[j-1], s[j] = s[j], s[j-1]
			}
		}
		for _, e := range s {
			if !fn(e.b, e.c) {
				return
			}
		}
	case k48:
		for b := 0; b < 256; b++ {
			if s := n.b48.index[b].Load(); s != 0 {
				if !fn(byte(b), n.b48.children[s-1].Load()) {
					return
				}
			}
		}
	case k256:
		for b := 0; b < 256; b++ {
			if c := n.b256.children[b].Load(); c != nil {
				if !fn(byte(b), c) {
					return
				}
			}
		}
	}
}

// --- Tree ----------------------------------------------------------------

// Tree is a concurrent ART mapping byte-string keys to RIDs. The zero value
// is not usable; call New.
type Tree struct {
	root *node // permanent k256 root with empty prefix; never replaced
	size atomic.Int64
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: newInner(k256, nil)}
}

// Len returns the number of entries, counting tombstones.
func (t *Tree) Len() int { return int(t.size.Load()) }

// Insert upserts key -> rid.
func (t *Tree) Insert(key []byte, rid uint64) {
	t.insert(key, rid, false)
}

// InsertTombstone records a deletion marker for key; Search will report the
// key as deleted rather than falling through to older index components.
func (t *Tree) InsertTombstone(key []byte) {
	t.insert(key, 0, true)
}

// Search returns the RID for key. found is false when the key is absent;
// tomb is true when the freshest entry is a deletion marker (rid invalid).
func (t *Tree) Search(key []byte) (rid uint64, found, tomb bool) {
	for {
		rid, found, tomb, ok := t.search(key)
		if ok {
			return rid, found, tomb
		}
	}
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

func (t *Tree) search(key []byte) (rid uint64, found, tomb, ok bool) {
	n := t.root
	v, alive := n.rLock()
	if !alive {
		return 0, false, false, false
	}
	depth := 0
	for {
		p := n.loadPrefix()
		m := matchLen(p, key[depth:])
		if m < len(p) {
			if !n.rValidate(v) {
				return 0, false, false, false
			}
			return 0, false, false, true // diverges inside the prefix
		}
		depth += len(p)
		if depth == len(key) {
			l := n.term.Load()
			if !n.rValidate(v) {
				return 0, false, false, false
			}
			if l == nil {
				return 0, false, false, true
			}
			return l.rid, true, l.tomb, true
		}
		next := n.child(key[depth])
		if !n.rValidate(v) {
			return 0, false, false, false
		}
		if next == nil {
			return 0, false, false, true
		}
		if next.kind == kLeaf {
			if bytes.Equal(next.key, key) {
				return next.rid, true, next.tomb, true
			}
			return 0, false, false, true
		}
		depth++
		n = next
		v, alive = n.rLock()
		if !alive {
			return 0, false, false, false
		}
	}
}

// insert is the OLC upsert.
func (t *Tree) insert(key []byte, rid uint64, tomb bool) {
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
			p := n.loadPrefix()
			m := matchLen(p, key[depth:])
			if m < len(p) {
				// Key diverges inside n's compressed path: split the
				// prefix by interposing a new inner node. Needs the
				// parent (to swap the edge) and n (to trim its prefix).
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
				ni.addChild(p[m], n)
				if depth+m == len(key) {
					ni.term.Store(newLeaf(key, rid, tomb))
				} else {
					ni.addChild(key[depth+m], newLeaf(key, rid, tomb))
				}
				n.setPrefix(p[m+1:])
				parent.replaceChild(parentByte, ni)
				n.unlock()
				parent.unlock()
				t.size.Add(1)
				return
			}
			depth += len(p)
			if depth == len(key) {
				// Key terminates at this node.
				if !n.upgrade(v) {
					goto restart
				}
				replaced := n.term.Load() != nil
				n.term.Store(newLeaf(key, rid, tomb))
				n.unlock()
				if !replaced {
					t.size.Add(1)
				}
				return
			}
			b := key[depth]
			next := n.child(b)
			if !n.rValidate(v) {
				goto restart
			}
			if next == nil {
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
					big := n.grown()
					big.addChild(b, newLeaf(key, rid, tomb))
					parent.replaceChild(parentByte, big)
					n.unlockObsolete()
					parent.unlock()
					t.size.Add(1)
					return
				}
				if !n.upgrade(v) {
					goto restart
				}
				n.addChild(b, newLeaf(key, rid, tomb))
				n.unlock()
				t.size.Add(1)
				return
			}
			if next.kind == kLeaf {
				if bytes.Equal(next.key, key) {
					if !n.upgrade(v) {
						goto restart
					}
					n.replaceChild(b, newLeaf(key, rid, tomb))
					n.unlock()
					return
				}
				// Two distinct keys share the edge: push both under a
				// fresh inner node keyed past their common prefix.
				if !n.upgrade(v) {
					goto restart
				}
				ok := next.key
				common := matchLen(ok[depth+1:], key[depth+1:])
				ni := newInner(k16, key[depth+1:depth+1+common])
				d2 := depth + 1 + common
				if d2 == len(ok) {
					ni.term.Store(next)
				} else {
					ni.addChild(ok[d2], next)
				}
				if d2 == len(key) {
					ni.term.Store(newLeaf(key, rid, tomb))
				} else {
					ni.addChild(key[d2], newLeaf(key, rid, tomb))
				}
				n.replaceChild(b, ni)
				n.unlock()
				t.size.Add(1)
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
