package art

import (
	"bytes"
	"sync"
)

// Scan visits entries with from <= key < to in ascending key order, calling
// fn until it returns false. A nil from means "from the beginning"; a nil to
// means "to the end". Tombstones are visited with tomb=true so that
// multi-component merging scans can suppress deleted keys.
//
// Scan is safe to run concurrently with writers; it reads each node under
// optimistic version validation and retries nodes that change underneath it.
// It does not promise a point-in-time snapshot of the index -- in HiEngine
// that guarantee comes from MVCC visibility over the returned RIDs, not from
// the index itself.
func (t *Tree) Scan(from, to []byte, fn func(key []byte, rid uint64, tomb bool) bool) {
	s := scanPool.Get().(*scanner)
	s.from, s.to, s.fn = from, to, fn
	s.node(t.root, 0, from != nil, to != nil)
	s.from, s.to, s.fn = nil, nil, nil
	scanPool.Put(s)
}

// scanner is one range scan's state. children is the scan's whole working
// memory, owned by the scan and kept across scans through scanPool, so
// walking an inner node allocates nothing: it is a stack of the visited
// nodes' child lists (each node reads its own consistent snapshot onto the
// top and pops it when done). No path is kept: the bounds are tracked by
// depth alone (see node).
type scanner struct {
	from, to []byte
	fn       func(key []byte, rid uint64, tomb bool) bool
	children []snapChild
}

type snapChild struct {
	b byte
	c *node
}

var scanPool = sync.Pool{New: func() interface{} { return new(scanner) }}

// snapshot pushes n's children, in ascending byte order, onto s.children
// under version validation, retrying until a consistent view is observed,
// and returns n's prefix and terminal leaf from the same view. ok is false
// when the node became obsolete.
func (s *scanner) snapshot(n *node) (prefix []byte, term *node, ok bool) {
	base := len(s.children)
	for {
		v, alive := n.rLock()
		if !alive {
			return nil, nil, false
		}
		prefix = n.loadPrefix()
		term = n.term.Load()
		s.children = s.children[:base]
		switch n.kind {
		case k16:
			cnt := int(n.b16.count.Load())
			for i := 0; i < cnt && i < 16; i++ {
				s.children = append(s.children, snapChild{byte(n.b16.keys[i].Load()), n.b16.children[i].Load()})
			}
			// Node16 keys are unsorted: insertion-sort the few of them.
			for cs, i := s.children[base:], 1; i < len(cs); i++ {
				for j := i; j > 0 && cs[j-1].b > cs[j].b; j-- {
					cs[j-1], cs[j] = cs[j], cs[j-1]
				}
			}
		case k48:
			for b := 0; b < 256; b++ {
				if slot := n.b48.index[b].Load(); slot != 0 {
					s.children = append(s.children, snapChild{byte(b), n.b48.children[slot-1].Load()})
				}
			}
		case k256:
			for b := 0; b < 256; b++ {
				if c := n.b256.children[b].Load(); c != nil {
					s.children = append(s.children, snapChild{byte(b), c})
				}
			}
		}
		if n.rValidate(v) {
			return prefix, term, true
		}
	}
}

// keyInRange reports from <= k < to, a nil bound being open.
func keyInRange(k, from, to []byte) bool {
	if from != nil && bytes.Compare(k, from) < 0 {
		return false
	}
	if to != nil && bytes.Compare(k, to) >= 0 {
		return false
	}
	return true
}

// node scans the subtree under n, which sits depth key bytes below the
// root, and returns false when the scan is over: fn said stop, or the walk
// has passed `to` (it is in key order, so nothing later can match).
//
// lo says the depth bytes leading to n equal from[:depth], so the subtree
// may still hold keys below from; hi says they equal to[:depth], so the
// subtree may still hold keys at or above to. Once both are false every key
// below n is in range and the walk compares nothing; while one holds, a
// child is ruled in or out by one byte, its own against the bound's next.
func (s *scanner) node(n *node, depth int, lo, hi bool) bool {
	if n.kind == kLeaf {
		if (lo || hi) && !keyInRange(n.key, s.from, s.to) {
			return true
		}
		return s.fn(n.key, n.rid, n.tomb)
	}
	base := len(s.children)
	more := s.inner(n, depth, lo, hi)
	s.children = s.children[:base]
	return more
}

// inner is node for an inner node; it leaves n's child list on s.children.
func (s *scanner) inner(n *node, depth int, lo, hi bool) bool {
	base := len(s.children)
	prefix, term, ok := s.snapshot(n)
	if !ok {
		// Node was replaced (grow/split); its contents remain reachable
		// through the new node on the next scan, but this path cannot
		// continue. Treat as empty: the replacing writer's data is newer
		// than the scan's start anyway.
		return true
	}
	depth += len(prefix)
	if lo {
		switch c := bytes.Compare(prefix, bound(s.from, depth-len(prefix), depth)); {
		case c < 0:
			return true // every key under n is below from
		case c > 0 || depth >= len(s.from):
			lo = false // above from, or from itself leads to n
		}
	}
	if hi {
		switch c := bytes.Compare(prefix, bound(s.to, depth-len(prefix), depth)); {
		case c > 0 || c == 0 && depth >= len(s.to):
			return false // every key under n is at or above to
		case c < 0:
			hi = false
		}
	}
	if term != nil && ((!lo && !hi) || keyInRange(term.key, s.from, s.to)) {
		if !s.fn(term.key, term.rid, term.tomb) {
			return false
		}
	}
	for i := base; i < len(s.children); i++ {
		ch := s.children[i]
		clo, chi := lo, hi
		if lo { // depth < len(from) here
			if ch.b < s.from[depth] {
				continue
			}
			clo = ch.b == s.from[depth]
		}
		if hi { // depth < len(to) here
			if ch.b > s.to[depth] {
				return false
			}
			chi = ch.b == s.to[depth]
		}
		if !s.node(ch.c, depth+1, clo, chi) {
			return false
		}
	}
	return true
}

// bound returns b[lo:hi] clipped to b's length.
func bound(b []byte, lo, hi int) []byte {
	if lo > len(b) {
		lo = len(b)
	}
	if hi > len(b) {
		hi = len(b)
	}
	return b[lo:hi]
}

// Min returns the smallest key in the tree (nil if empty). Tombstones count.
func (t *Tree) Min() (key []byte, rid uint64, ok bool) {
	t.Scan(nil, nil, func(k []byte, r uint64, _ bool) bool {
		key, rid, ok = k, r, true
		return false
	})
	return key, rid, ok
}
