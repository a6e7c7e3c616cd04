package art

import (
	"bytes"
	"sort"
	"testing"
)

// entry is the map oracle's value for a key.
type entry struct {
	rid  uint64
	tomb bool
}

// oracleOp is one write: an upsert, or a tombstone when tomb is set.
type oracleOp struct {
	key  string
	rid  uint64
	tomb bool
}

func (o oracleOp) apply(tr *Tree, ref map[string]entry) {
	if o.tomb {
		tr.InsertTombstone([]byte(o.key))
		ref[o.key] = entry{tomb: true}
		return
	}
	tr.Insert([]byte(o.key), o.rid)
	ref[o.key] = entry{rid: o.rid}
}

// checkAgainst holds tr to the map oracle: every key searches to its entry,
// Len counts them, a full scan and a scan of each one-key range visit them
// in order with their entries.
func checkAgainst(t *testing.T, tr *Tree, ref map[string]entry) {
	t.Helper()
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if rid, found, tomb := tr.Search([]byte(k)); !found || rid != ref[k].rid || tomb != ref[k].tomb {
			t.Fatalf("Search(%q) = %d %v %v, want %+v", k, rid, found, tomb, ref[k])
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
		if string(got[i].Key) != k || got[i].RID != ref[k].rid || got[i].Tomb != ref[k].tomb {
			t.Fatalf("scan entry %d = %q %d %v, want %q %+v", i, got[i].Key, got[i].RID, got[i].Tomb, k, ref[k])
		}
		one := scanEntries(tr, []byte(k), append([]byte(k), 0))
		if len(one) != 1 || string(one[0].Key) != k {
			t.Fatalf("scan of [%q, %q\\x00) = %v", k, k, one)
		}
	}
}

// scanned is one entry a Scan visited, its key copied out of the callback.
type scanned struct {
	Key  []byte
	RID  uint64
	Tomb bool
}

func scanEntries(tr *Tree, from, to []byte) []scanned {
	var out []scanned
	tr.Scan(from, to, func(k []byte, rid uint64, tomb bool) bool {
		out = append(out, scanned{Key: append([]byte(nil), k...), RID: rid, Tomb: tomb})
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
	const big = 1 << 62 // the first RID a slot word cannot hold
	var grow []oracleOp
	for i := 0; i < 256; i++ {
		grow = append(grow, oracleOp{key: "g" + string(rune(0)) + string([]byte{byte(i)}), rid: uint64(i)})
	}
	type want struct {
		after int    // check after this many ops (0: after all)
		key   string // whose entry is kept
		how   string // "inline", "leaf" or "term"
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
		{"inline tombstone", []oracleOp{{key: "a", rid: 1}, {key: "a", tomb: true}},
			[]want{{key: "a", how: "inline"}}},
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
		{"term upsert and tombstone", []oracleOp{{key: "a", rid: 1}, {key: "ab", rid: 2}, {key: "a", rid: 3}, {key: "a", tomb: true}},
			[]want{{key: "a", how: "term"}}},
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
			tr, ref := New(), map[string]entry{}
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

// FuzzTreeOps drives a tree with inserts, tombstones, searches and scans
// over short keys from a four-byte alphabet -- so keys are prefixes of one
// another and every slot transition happens -- and holds it to a map oracle.
// An op byte with bit 0x10 set makes its insert or search a hinted one,
// through one Hint the whole program shares.
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
		tr, ref := New(), map[string]entry{}
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
					rid += 1 << 62 // kept in a leaf
				}
				tr.InsertHint(k, rid, hint)
				ref[string(k)] = entry{rid: rid}
			case 1:
				oracleOp{key: string(key()), tomb: true}.apply(tr, ref)
			case 2:
				k := key()
				want, ok := ref[string(k)]
				if rid, found, tomb := tr.SearchHint(k, hint); found != ok || rid != want.rid || tomb != want.tomb {
					t.Fatalf("Search(%x) = %d %v %v, want %+v %v", k, rid, found, tomb, want, ok)
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
					if string(got[i].Key) != want[i] || got[i].RID != ref[want[i]].rid {
						t.Fatalf("Scan(%x, %x) entry %d = %x, want %x", from, to, i, got[i].Key, want[i])
					}
				}
			}
		}
		checkAgainst(t, tr, ref)
	})
}
