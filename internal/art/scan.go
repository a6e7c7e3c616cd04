package art

import (
	"bytes"
	"sync"
)

// Scan visits entries with from <= key < to in ascending key order, calling
// fn until it returns false. A nil from means "from the beginning"; a nil to
// means "to the end". Tombstones are visited with tomb=true; the caller decides whether a
// deleted key counts. The key handed to
// fn is valid only during the call: an inline value's key is rebuilt from
// the path in the scan's own buffer.
//
// Scan is safe to run concurrently with writers; it reads each node under
// optimistic version validation and retries nodes that change underneath it.
// A node replaced while the scan walks to it (grown, or copied by a prefix
// split) sends the scan back to the root, resuming where the node's keys
// begin, so no key present throughout the scan is missed or repeated. It
// does not promise a point-in-time snapshot of the index -- in HiEngine that
// guarantee comes from MVCC visibility over the returned RIDs, not from the
// index itself.
func (t *Tree) Scan(from, to []byte, fn func(key []byte, rid uint64, tomb bool) bool) {
	s := scanPool.Get().(*scanner)
	s.from, s.to, s.fn = from, to, fn
	for !s.node(t.root, 0, s.from != nil, to != nil) && s.restart {
		s.restart = false
	}
	s.from, s.to, s.fn = nil, nil, nil
	scanPool.Put(s)
}

// scanner is one range scan's state. slots and path are the scan's whole
// working memory, owned by the scan and kept across scans through scanPool,
// so walking an inner node allocates nothing: slots is a stack of the
// visited nodes' slot lists (each node reads its own consistent snapshot
// onto the top and pops it when done), path the key bytes from the root to
// the slot being visited.
type scanner struct {
	from, to []byte
	fn       func(key []byte, rid uint64, tomb bool) bool
	slots    []slotEntry
	path     []byte
	// restart says the walk met a replaced node and stopped; from is then
	// resume, the path to that node, unless from was already past it.
	restart bool
	resume  []byte
}

var scanPool = sync.Pool{New: func() interface{} { return new(scanner) }}

// snapshot pushes n's occupied slots, in ascending byte order, onto s.slots
// under version validation, retrying until a consistent view is observed,
// and returns n's terminal leaf from the same view. ok is false when the
// node became obsolete.
func (s *scanner) snapshot(n *node) (term *node, ok bool) {
	base := len(s.slots)
	for {
		v, alive := n.rLock()
		if !alive {
			return nil, false
		}
		term = n.term.Load()
		s.slots = n.appendSlots(s.slots[:base])
		if n.rValidate(v) {
			return term, true
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

// emit hands fn one entry, checking it against the bounds first when check
// says the walk has not ruled it in.
func (s *scanner) emit(key []byte, rid uint64, tomb, check bool) bool {
	if check && !keyInRange(key, s.from, s.to) {
		return true
	}
	return s.fn(key, rid, tomb)
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
		return s.emit(n.key, n.rid, n.tomb, lo || hi)
	}
	base := len(s.slots)
	more := s.inner(n, depth, lo, hi)
	s.slots = s.slots[:base]
	return more
}

// inner is node for an inner node; it leaves n's slot list on s.slots.
func (s *scanner) inner(n *node, depth int, lo, hi bool) bool {
	base := len(s.slots)
	term, ok := s.snapshot(n)
	if !ok {
		// A writer replaced n after the walk read the pointer to it. Every
		// key handed out so far is below the path to n and every key of
		// n's replacement starts with it: walk again from there.
		if !lo {
			s.resume = append(s.resume[:0], s.path[:depth]...)
			s.from = s.resume
		}
		s.restart = true
		return false
	}
	prefix := n.prefix
	s.path = append(s.path[:depth], prefix...)
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
	if term != nil && !s.emit(term.key, term.rid, term.tomb, lo || hi) {
		return false
	}
	for i := base; i < len(s.slots); i++ {
		e := s.slots[i]
		clo, chi := lo, hi
		if lo { // depth < len(from) here
			if e.b < s.from[depth] {
				continue
			}
			clo = e.b == s.from[depth]
		}
		if hi { // depth < len(to) here
			if e.b > s.to[depth] {
				return false
			}
			chi = e.b == s.to[depth]
		}
		s.path = append(s.path[:depth], e.b)
		var more bool
		if e.w != 0 {
			more = s.emit(s.path, wordRID(e.w), wordTomb(e.w), clo || chi)
		} else {
			more = s.node(e.c, depth+1, clo, chi)
		}
		if !more {
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
