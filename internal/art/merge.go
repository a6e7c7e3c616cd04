package art

// Merge implements the recursive two-tree merge of Section 4.5. It returns a
// new tree containing the union of t (the newer tree) and older; when both
// contain a key, t's entry wins. When dropTombstones is true, deletion
// markers are elided from the result (legal only when merging into the
// oldest component, where there is nothing left for a tombstone to mask).
//
// Both input trees must be quiescent (no concurrent writers); merging
// happens on frozen/read-only components in HiEngine. The inputs are not
// modified; the result shares no nodes with them.
func (t *Tree) Merge(older *Tree, dropTombstones bool) *Tree {
	out := New()
	m := &merger{out: out}
	m.mergeNodes(t.root, older.root, nil)
	if !dropTombstones {
		return out
	}
	// Tombstones must survive the structural merge itself (a newer
	// tombstone has to overwrite an older live entry before it can be
	// dropped); strip them in a final pass.
	clean := New()
	out.Scan(nil, nil, func(k []byte, rid uint64, tomb bool) bool {
		if !tomb {
			clean.Insert(k, rid)
		}
		return true
	})
	return clean
}

type merger struct {
	out *Tree
}

func (m *merger) emit(l *node) {
	if l == nil {
		return
	}
	m.out.insert(l.key, l.rid, l.tomb)
}

// emitSubtree inserts every entry under n into the output.
func (m *merger) emitSubtree(n *node) {
	if n == nil {
		return
	}
	if n.kind == kLeaf {
		m.emit(n)
		return
	}
	m.emit(n.term.Load())
	n.eachChild(func(_ byte, c *node) bool {
		m.emitSubtree(c)
		return true
	})
}

// mergeNodes walks a (newer) and b (older) in lockstep. The three cases of
// Section 4.5 -- inner/inner, inner/leaf, leaf/leaf -- reduce here to
// re-inserting diverging subtrees wholesale and recursing only where the two
// trees actually overlap, which is what bounds the work to the shared key
// space. depth tracking is implicit: leaves carry their full keys, so
// re-insertion needs no path reconstruction.
func (m *merger) mergeNodes(a, b *node, path []byte) {
	switch {
	case a == nil:
		m.emitSubtree(b)
		return
	case b == nil:
		m.emitSubtree(a)
		return
	}
	// Case 3: leaf / leaf.
	if a.kind == kLeaf && b.kind == kLeaf {
		if string(a.key) == string(b.key) {
			m.emit(a) // newer wins
		} else {
			m.emit(a)
			m.emit(b)
		}
		return
	}
	// Case 2: inner / leaf (either order): merge the leaf into the inner
	// subtree. Newer-wins is preserved by insertion order below.
	if a.kind == kLeaf {
		// a is the single newer entry; emit the whole older subtree
		// first, then overwrite with a.
		m.emitSubtree(b)
		m.emit(a)
		return
	}
	if b.kind == kLeaf {
		// Older single entry: insert it first so any equal key in a
		// overwrites it.
		m.emit(b)
		m.emitSubtree(a)
		return
	}
	// Case 1: inner / inner. Compare prefixes: if the compressed paths
	// diverge, the subtrees are key-disjoint and can be emitted
	// independently; if one prefix extends the other, the longer one is a
	// subtree of a single child position of the shorter; if equal, merge
	// children pairwise.
	pa, pb := a.loadPrefix(), b.loadPrefix()
	cm := matchLen(pa, pb)
	if cm < len(pa) && cm < len(pb) {
		// Prefixes diverge: disjoint key spaces.
		m.emitSubtree(a)
		m.emitSubtree(b)
		return
	}
	if len(pa) != len(pb) {
		// One node sits deeper: its whole subtree belongs under one
		// child byte of the shallower node. Recurse there and emit the
		// rest of the shallower node as-is.
		shallow, deep := a, b
		deepIsOlder := true
		if len(pa) > len(pb) {
			shallow, deep = b, a
			deepIsOlder = false
		}
		dp := deep.loadPrefix()
		edge := dp[len(shallow.loadPrefix())]
		m.emit(shallow.term.Load())
		shallow.eachChild(func(bb byte, c *node) bool {
			if bb != edge {
				// Keep ordering: shallow==b means these are older
				// entries and must go in before any newer ones, but
				// they are key-disjoint from deep so order is moot.
				m.emitSubtree(c)
			}
			return true
		})
		// Build a pseudo-node for deep with the prefix trimmed past the
		// edge byte, then recurse against the shallow node's child.
		trimmed := trimPrefix(deep, dp[len(shallow.loadPrefix())+1:])
		sc := shallow.child(edge)
		if deepIsOlder {
			m.mergeNodes(sc, trimmed, nil)
		} else {
			m.mergeNodes(trimmed, sc, nil)
		}
		return
	}
	// Equal prefixes: merge terminals and children pairwise.
	ta, tb := a.term.Load(), b.term.Load()
	if ta != nil {
		m.emit(ta)
	} else {
		m.emit(tb)
	}
	// Children: classic sorted two-pointer merge over byte order.
	var ac, bc []snapChild
	a.eachChild(func(bb byte, c *node) bool { ac = append(ac, snapChild{bb, c}); return true })
	b.eachChild(func(bb byte, c *node) bool { bc = append(bc, snapChild{bb, c}); return true })
	i, j := 0, 0
	for i < len(ac) || j < len(bc) {
		switch {
		case j >= len(bc) || (i < len(ac) && ac[i].b < bc[j].b):
			m.emitSubtree(ac[i].c)
			i++
		case i >= len(ac) || bc[j].b < ac[i].b:
			m.emitSubtree(bc[j].c)
			j++
		default:
			m.mergeNodes(ac[i].c, bc[j].c, nil)
			i++
			j++
		}
	}
}

// trimPrefix returns a view of n with its prefix replaced by p (used when a
// deeper node is aligned under a shallower node's child edge). Leaves are
// returned unchanged (their full keys make prefixes irrelevant).
func trimPrefix(n *node, p []byte) *node {
	if n.kind == kLeaf {
		return n
	}
	cp := &node{kind: n.kind, inner: &inner{b16: n.b16, b48: n.b48, b256: n.b256}}
	cp.term.Store(n.term.Load())
	cp.setPrefix(p)
	return cp
}
