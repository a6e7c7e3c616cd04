package art

import (
	"bytes"
	"sort"
	"testing"
)

// oracleOp is one write: an upsert, or a delete when del is set.
type oracleOp struct {
	key string
	rid uint64
	del bool
}

func (o oracleOp) apply(tr *Tree, ref map[string]uint64) {
	if o.del {
		tr.Delete([]byte(o.key))
		delete(ref, o.key)
		return
	}
	tr.Insert([]byte(o.key), o.rid)
	ref[o.key] = o.rid
}

// checkAgainst holds tr to the map oracle: every key searches to its RID,
// Len counts them, a full scan and a scan of each one-key range visit them
// in order with their RIDs.
func checkAgainst(t *testing.T, tr *Tree, ref map[string]uint64) {
	t.Helper()
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if rid, found := tr.Search([]byte(k)); !found || rid != ref[k] {
			t.Fatalf("Search(%q) = %d %v, want %d", k, rid, found, ref[k])
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	got := scanEntries(tr, nil, nil)
	if len(got) != len(keys) {
		t.Fatalf("scan visited %d entries, want %d: %v", len(got), len(keys), got)
	}
	for i, k := range keys {
		if string(got[i].Key) != k || got[i].RID != ref[k] {
			t.Fatalf("scan entry %d = %q %d, want %q %d", i, got[i].Key, got[i].RID, k, ref[k])
		}
		one := scanEntries(tr, []byte(k), append([]byte(k), 0))
		if len(one) != 1 || string(one[0].Key) != k {
			t.Fatalf("scan of [%q, %q\\x00) = %v", k, k, one)
		}
	}
}

// scanned is one entry a Scan visited, its key copied out of the callback.
type scanned struct {
	Key []byte
	RID uint64
}

func scanEntries(tr *Tree, from, to []byte) []scanned {
	var out []scanned
	tr.Scan(from, to, func(k []byte, rid uint64) bool {
		out = append(out, scanned{Key: append([]byte(nil), k...), RID: rid})
		return true
	})
	return out
}

// holder walks tr to where key's entry is kept and reports the node it is in
// and how: "inline" (a value word in the node's slot), "leaf" (a leaf in the
// slot) or "term" (the node's terminal leaf); "" when key is absent.
func holder(tr *Tree, key []byte) (*node, string) {
	n, depth := tr.root, 0
	for {
		p := n.prefix
		if !bytes.HasPrefix(key[depth:], p) {
			return nil, ""
		}
		depth += len(p)
		if depth == len(key) {
			if n.term.Load() == nil {
				return nil, ""
			}
			return n, "term"
		}
		c, w := n.slot(key[depth])
		switch {
		case w != 0 && depth+1 == len(key):
			return n, "inline"
		case w != 0 || c == nil:
			return nil, ""
		case c.kind == kLeaf && bytes.Equal(c.key, key):
			return n, "leaf"
		case c.kind == kLeaf:
			return nil, ""
		}
		n, depth = c, depth+1
	}
}

// TestInlineSlotTransitions walks each slot rule -- where an entry is kept
// after each write, and the node size class that holds it -- against the
// map oracle and Scan order.
func TestInlineSlotTransitions(t *testing.T) {
	const big = 1 << 63 // the first RID a slot word cannot hold
	var grow []oracleOp
	for i := 0; i < 256; i++ {
		grow = append(grow, oracleOp{key: "g" + string(rune(0)) + string([]byte{byte(i)}), rid: uint64(i)})
	}
	type want struct {
		after int    // check after this many ops (0: after all)
		key   string // whose entry is kept
		how   string // "inline", "leaf", "term" or "" (absent)
		kind  kind   // of the node keeping it, when set
	}
	cases := []struct {
		name string
		ops  []oracleOp
		want []want
	}{
		{"empty to inline", []oracleOp{{key: "a", rid: 1}},
			[]want{{key: "a", how: "inline", kind: k256}}},
		{"empty to lazy leaf", []oracleOp{{key: "abc", rid: 1}},
			[]want{{key: "abc", how: "leaf"}}},
		{"inline upsert", []oracleOp{{key: "a", rid: 1}, {key: "a", rid: 2}},
			[]want{{key: "a", how: "inline"}}},
		{"inline delete", []oracleOp{{key: "a", rid: 1}, {key: "a", del: true}},
			[]want{{key: "a", how: ""}}},
		{"inline to inner with a term leaf", []oracleOp{{key: "a", rid: 1}, {key: "ab", rid: 2}},
			[]want{{key: "a", how: "term", kind: k16}, {key: "ab", how: "inline", kind: k16}}},
		{"inline to inner, longer key lazy", []oracleOp{{key: "a", rid: 1}, {key: "abcd", rid: 2}},
			[]want{{key: "a", how: "term"}, {key: "abcd", how: "leaf"}}},
		{"lazy leaf to inline on a split", []oracleOp{{key: "xy1", rid: 1}, {key: "xy2", rid: 2}},
			[]want{{after: 1, key: "xy1", how: "leaf"}, {key: "xy1", how: "inline"}, {key: "xy2", how: "inline"}}},
		{"lazy leaf to term on a split", []oracleOp{{key: "xy", rid: 1}, {key: "xyz", rid: 2}},
			[]want{{key: "xy", how: "term"}, {key: "xyz", how: "inline"}}},
		{"lazy leaves stay leaves past the split", []oracleOp{{key: "xy12", rid: 1}, {key: "xz34", rid: 2}},
			[]want{{key: "xy12", how: "leaf"}, {key: "xz34", how: "leaf"}}},
		{"prefix split", []oracleOp{{key: "p1234a", rid: 1}, {key: "p1234b", rid: 2}, {key: "p12X", rid: 3}, {key: "p1", rid: 4}},
			[]want{{key: "p1234a", how: "inline"}, {key: "p12X", how: "inline"}, {key: "p1", how: "term"}}},
		{"term upsert and delete", []oracleOp{{key: "a", rid: 1}, {key: "ab", rid: 2}, {key: "a", rid: 3}, {key: "a", del: true}},
			[]want{{after: 3, key: "a", how: "term"}, {key: "a", how: ""}, {key: "ab", how: "inline", kind: k16}}},
		{"growth carries values", grow,
			[]want{
				{after: 16, key: grow[0].key, how: "inline", kind: k16},
				{after: 16, key: grow[15].key, how: "inline", kind: k16},
				{after: 17, key: grow[0].key, how: "inline", kind: k48},
				{after: 48, key: grow[47].key, how: "inline", kind: k48},
				{after: 49, key: grow[0].key, how: "inline", kind: k256},
				{key: grow[255].key, how: "inline", kind: k256},
			}},
		{"a big value stays a leaf", []oracleOp{{key: "a", rid: big}, {key: "a", rid: 5}, {key: "a", rid: ^uint64(0)}},
			[]want{{after: 1, key: "a", how: "leaf"}, {after: 2, key: "a", how: "inline"}, {key: "a", how: "leaf"}}},
		{"a big-value leaf under a longer key", []oracleOp{{key: "a", rid: big + 1}, {key: "ab", rid: 3}},
			[]want{{key: "a", how: "term"}, {key: "ab", how: "inline"}}},
		{"a big value on a split", []oracleOp{{key: "xy1", rid: 1}, {key: "xy2", rid: big}},
			[]want{{key: "xy1", how: "inline"}, {key: "xy2", how: "leaf"}}},
		{"empty key", []oracleOp{{key: "", rid: 7}, {key: "a", rid: 8}},
			[]want{{key: "", how: "term", kind: k256}, {key: "a", how: "inline"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, ref := New(), map[string]uint64{}
			for i, op := range tc.ops {
				op.apply(tr, ref)
				for _, w := range tc.want {
					if w.after != i+1 && (w.after != 0 || i+1 != len(tc.ops)) {
						continue
					}
					n, how := holder(tr, []byte(w.key))
					if how != w.how || w.kind != kLeaf && n.kind != w.kind {
						t.Fatalf("after %d ops %q is kept %q (node %+v), want %q in kind %d", i+1, w.key, how, n, w.how, w.kind)
					}
				}
				checkAgainst(t, tr, ref)
			}
		})
	}
}

// TestDeleteThenReinsertRegistersOnce: a key deleted from a Node16, Node48
// or Node256 that is not full and inserted again -- through the descent, or
// through a Hint that remembers the node -- is found, and so is a key with
// a fresh byte beside it, and a scan visits each once. A removal unregisters
// its byte, so the insert does not register it a second time behind an
// empty slot that a lookup would find first.
func TestDeleteThenReinsertRegistersOnce(t *testing.T) {
	for _, c := range []struct {
		kind kind
		keys int
	}{{k16, 8}, {k48, 30}, {k256, 100}} {
		for _, hinted := range []bool{false, true} {
			tr, ref := New(), map[string]uint64{}
			var h *Hint
			if hinted {
				h = new(Hint)
			}
			put := func(b int, rid uint64) {
				k := string([]byte{'n', byte(b)})
				tr.InsertHint([]byte(k), rid, h)
				ref[k] = rid
			}
			for i := 0; i < c.keys; i++ {
				put(2*i, uint64(i))
			}
			for _, i := range []int{c.keys / 2, 0, c.keys - 1} {
				k := []byte{'n', byte(2 * i)}
				tr.Delete(k)
				delete(ref, string(k))
				put(2*i, 1000+uint64(i))
				put(2*i+1, 2000+uint64(i))
				if n, how := holder(tr, k); how != "inline" || n.kind != c.kind {
					t.Fatalf("kind %d, hinted %v: %q is kept %q, want inline in kind %d", c.kind, hinted, k, how, c.kind)
				}
				checkAgainst(t, tr, ref)
			}
		}
	}
}

// TestDeleteUnlinksEmptiedNodes: a removal that empties a node unlinks it,
// with each ancestor that held nothing but the path to it, and marks them
// obsolete; a node that keeps a slot or its terminal leaf stays. When the
// keys are gone, NodeBytes is what it was before they came (the root, which
// already had a child, keeps its arrays).
func TestDeleteUnlinksEmptiedNodes(t *testing.T) {
	tr, ref := New(), map[string]uint64{"q1": 1, "q2": 2, "z": 3} // "z" is a value word in the root
	for k, rid := range ref {
		tr.Insert([]byte(k), rid)
	}
	base := tr.NodeBytes()
	for i, k := range []string{"xa1", "xa2", "xb1", "xb2", "xb"} {
		tr.Insert([]byte(k), uint64(i))
	}
	x, _ := tr.root.slot('x') // "xa*" and "xb*" below a node with slots 'a' and 'b'
	a, _ := x.slot('a')
	b, _ := x.slot('b')
	if x == nil || a == nil || b == nil || b.term.Load() == nil {
		t.Fatalf("unexpected shape: x %v, a %v, b %v", x, a, b)
	}
	live := func(n *node) bool { _, ok := n.rLock(); return ok }
	del := func(keys ...string) {
		for _, k := range keys {
			tr.Delete([]byte(k))
		}
	}
	del("xa1", "xa2") // a empties; x keeps b
	if live(a) || !live(x) {
		t.Fatalf("after emptying a: a live %v, x live %v", live(a), live(x))
	}
	if c, w := x.slot('a'); c != nil || w != 0 {
		t.Fatal("x still holds a's slot")
	}
	del("xb1", "xb2") // b keeps its terminal leaf
	if !live(b) || !live(x) {
		t.Fatal("a node that keeps its terminal leaf was unlinked")
	}
	del("xb") // b empties, and x, which held only b, with it
	if live(b) || live(x) {
		t.Fatalf("after emptying b: b live %v, x live %v", live(b), live(x))
	}
	if c, w := tr.root.slot('x'); c != nil || w != 0 {
		t.Fatal("the root still holds x's slot")
	}
	if got := tr.NodeBytes(); got != base {
		t.Fatalf("NodeBytes = %d with the keys gone, want %d", got, base)
	}
	checkAgainst(t, tr, ref)
	// The root, a Node256, lets go of its child array with its last child
	// and of its value array with its last value: emptied, it is as small as
	// a new tree's.
	del("q1", "q2", "z")
	if got, want := tr.NodeBytes(), New().NodeBytes(); got != want {
		t.Fatalf("NodeBytes = %d with every key gone, want an empty tree's %d", got, want)
	}
}

// FuzzTreeOps drives a tree with inserts, deletes, searches and scans
// over short keys from a four-byte alphabet -- so keys are prefixes of one
// another and every slot transition happens -- and holds it to a map oracle.
// An op byte with bit 0x10 set makes its insert or search a hinted one,
// through one Hint the whole program shares; a delete is the same either
// way, and a hinted insert after it lands beside the nodes it emptied.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 0, 2, 0, 1, 6, 2, 1, 0, 3, 0, 4})
	f.Add([]byte{0, 3, 1, 2, 3, 9, 0, 2, 1, 2, 200, 1, 1, 1, 3, 2, 0, 3})
	f.Add(bytes.Repeat([]byte{0, 2, 3, 1}, 64))
	f.Add([]byte{0x10, 2, 1, 1, 0x10, 2, 1, 2, 0x10, 2, 1, 3, 0x12, 2, 1, 2, 0x12, 2, 2, 2, 1, 2, 1, 2, 0x10, 2, 1, 2, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		alphabet := []byte{0x00, 'a', 'b', 0xFF}
		key := func() []byte {
			k := make([]byte, next()%5)
			for i := range k {
				k[i] = alphabet[next()%4]
			}
			return k
		}
		tr, ref := New(), map[string]uint64{}
		var h Hint
		for len(prog) > 0 {
			op := next()
			hint := (*Hint)(nil)
			if op&0x10 != 0 {
				hint = &h
			}
			switch op % 4 {
			case 0:
				k, r := key(), next()
				rid := uint64(r)
				if r >= 0xF0 {
					rid += 1 << 63 // kept in a leaf
				}
				tr.InsertHint(k, rid, hint)
				ref[string(k)] = rid
			case 1:
				oracleOp{key: string(key()), del: true}.apply(tr, ref)
			case 2:
				k := key()
				want, ok := ref[string(k)]
				if rid, found := tr.SearchHint(k, hint); found != ok || rid != want {
					t.Fatalf("Search(%x) = %d %v, want %d %v", k, rid, found, want, ok)
				}
			case 3:
				from, to := key(), key()
				var want []string
				for k := range ref {
					if k >= string(from) && k < string(to) {
						want = append(want, k)
					}
				}
				sort.Strings(want)
				got := scanEntries(tr, from, to)
				if len(got) != len(want) {
					t.Fatalf("Scan(%x, %x) visited %d entries, want %d", from, to, len(got), len(want))
				}
				for i := range got {
					if string(got[i].Key) != want[i] || got[i].RID != ref[want[i]] {
						t.Fatalf("Scan(%x, %x) entry %d = %x, want %x", from, to, i, got[i].Key, want[i])
					}
				}
			}
		}
		checkAgainst(t, tr, ref)
	})
}
