package art

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements the append-only serialized form of an ART, the basis
// of HiEngine's LSM-like index persistence (Section 4.5). A tree is written
// post-order (children before parents) into an append-only byte region, so
// every child reference is a known backward offset; the result can be
// searched and iterated directly in its serialized form through mmap-style
// reads, which is what gives indexes partial-memory (spill-out) support.
//
// Layout (all integers are uvarints):
//
//	region   := magic(1 byte 'A') node*
//	leaf     := 0x00 keyLen key rid tomb(1)
//	inner    := 0x01 prefixLen prefix termOff nChildren (byte childOff)*
//
// Offsets are relative to the region start; 0 (the magic byte) doubles as
// the nil reference. The root is the last node written; its offset and the
// entry count are returned to the caller, which stores them in component
// metadata (and ultimately in checkpoints).

// Appender is the append-only sink a tree is serialized into. srss.PLog
// implements it.
type Appender interface {
	Append(data []byte) (int64, error)
}

// ByteSource is the random-access view a serialized tree is read through.
// srss.View implements it.
type ByteSource interface {
	At(off int64, n int) ([]byte, error)
	Len() int64
}

const (
	regionMagic = 'A'
	tagLeaf     = 0x00
	tagInner    = 0x01

	// MaxKeyLen bounds index keys so that any serialized node fits in one
	// bounded read.
	MaxKeyLen = 2048

	// maxNodeSize is the parse read-ahead: a worst-case inner node is
	// 1 + 10 + MaxKeyLen + 10 + 10 + 256*(1+10) bytes < 16 KiB.
	maxNodeSize = 16 << 10
)

// ErrKeyTooLong is returned for keys exceeding MaxKeyLen.
var ErrKeyTooLong = errors.New("art: key exceeds MaxKeyLen")

// regionWriter batches appends so serialization I/O uses a constant-size
// buffer regardless of tree size (the paper's constant-memory claim).
type regionWriter struct {
	dst Appender
	buf []byte
	off int64 // region-relative offset of the next byte
	err error
}

func newRegionWriter(dst Appender, batch int) (*regionWriter, error) {
	if batch <= 0 {
		batch = 64 << 10
	}
	w := &regionWriter{dst: dst, buf: make([]byte, 0, batch)}
	w.write([]byte{regionMagic})
	return w, w.err
}

func (w *regionWriter) write(p []byte) int64 {
	if w.err != nil {
		return 0
	}
	start := w.off
	for len(p) > 0 {
		if len(w.buf) == cap(w.buf) {
			w.flush()
			if w.err != nil {
				return 0
			}
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+n]
		p = p[n:]
		w.off += int64(n)
	}
	return start
}

func (w *regionWriter) flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	_, w.err = w.dst.Append(w.buf)
	w.buf = w.buf[:0]
}

// encoder assembles one node before writing it.
type encoder struct{ b []byte }

func (e *encoder) reset()      { e.b = e.b[:0] }
func (e *encoder) byte(v byte) { e.b = append(e.b, v) }
func (e *encoder) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}
func (e *encoder) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

func (e *encoder) leaf(key []byte, rid uint64, tomb bool) {
	e.reset()
	e.byte(tagLeaf)
	e.bytes(key)
	e.uvarint(rid)
	if tomb {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// cref is an inner node's reference to one child: its byte and offset.
type cref struct {
	b   byte
	off int64
}

func (e *encoder) inner(prefix []byte, termOff int64, crefs []cref) {
	e.reset()
	e.byte(tagInner)
	e.bytes(prefix)
	e.uvarint(uint64(termOff))
	e.uvarint(uint64(len(crefs)))
	for _, c := range crefs {
		e.byte(c.b)
		e.uvarint(uint64(c.off))
	}
}

// SerializeResult describes a serialized tree region.
type SerializeResult struct {
	RootOff int64 // offset of the root node within the region
	Length  int64 // total region length in bytes
	Count   int64 // number of entries (tombstones included)
}

// SerializeTree writes a quiescent tree into dst and returns the region
// metadata. Serialization is the "merge with an empty index" special case of
// Section 4.5: a post-order walk emitting nodes in constant extra memory
// (recursion stack plus one I/O batch buffer).
func SerializeTree(t *Tree, dst Appender) (SerializeResult, error) {
	w, err := newRegionWriter(dst, 0)
	if err != nil {
		return SerializeResult{}, err
	}
	var enc encoder
	var count int64
	rootOff := serializeNode(t.root, nil, w, &enc, &count)
	w.flush()
	if w.err != nil {
		return SerializeResult{}, w.err
	}
	return SerializeResult{RootOff: rootOff, Length: w.off, Count: count}, nil
}

// serializeNode writes the subtree under n, whose path from the root is
// path. An inline value becomes an ordinary leaf record keyed by its path.
func serializeNode(n *node, path []byte, w *regionWriter, enc *encoder, count *int64) int64 {
	if n.kind == kLeaf {
		return writeLeaf(n.key, n.rid, n.tomb, w, enc, count)
	}
	path = append(path, n.prefix...)
	var termOff int64
	if l := n.term.Load(); l != nil {
		termOff = serializeNode(l, path, w, enc, count)
	}
	slots := n.appendSlots(nil)
	crefs := make([]cref, len(slots))
	for i, e := range slots {
		key := append(path, e.b)
		crefs[i].b = e.b
		if e.w != 0 {
			crefs[i].off = writeLeaf(key, wordRID(e.w), wordTomb(e.w), w, enc, count)
		} else {
			crefs[i].off = serializeNode(e.c, key, w, enc, count)
		}
	}
	enc.inner(n.prefix, termOff, crefs)
	return w.write(enc.b)
}

func writeLeaf(key []byte, rid uint64, tomb bool, w *regionWriter, enc *encoder, count *int64) int64 {
	enc.leaf(key, rid, tomb)
	*count++
	return w.write(enc.b)
}

// Entry is one key/RID pair in a sorted stream.
type Entry struct {
	Key  []byte
	RID  uint64
	Tomb bool
}

// BuildFromSorted serializes a tree directly from entries, which must be in
// strictly ascending key order (duplicates are rejected). This is how merged
// components are written: the merge iterates existing components (bounded
// memory) and streams the surviving entries here.
func BuildFromSorted(entries []Entry, dst Appender) (SerializeResult, error) {
	for i := 1; i < len(entries); i++ {
		if bytes.Compare(entries[i-1].Key, entries[i].Key) >= 0 {
			return SerializeResult{}, fmt.Errorf("art: entries not strictly sorted at %d", i)
		}
	}
	for _, e := range entries {
		if len(e.Key) > MaxKeyLen {
			return SerializeResult{}, ErrKeyTooLong
		}
	}
	w, err := newRegionWriter(dst, 0)
	if err != nil {
		return SerializeResult{}, err
	}
	var enc encoder
	rootOff := buildRange(entries, 0, w, &enc, true)
	w.flush()
	if w.err != nil {
		return SerializeResult{}, w.err
	}
	return SerializeResult{RootOff: rootOff, Length: w.off, Count: int64(len(entries))}, nil
}

// buildRange writes the subtree covering entries (all sharing their first
// `depth` key bytes) and returns its offset. When root is true an inner node
// is always produced (a component root must be an inner node so Search can
// treat the root uniformly).
func buildRange(entries []Entry, depth int, w *regionWriter, enc *encoder, root bool) int64 {
	if len(entries) == 0 {
		// Empty root only.
		enc.inner(nil, 0, nil)
		return w.write(enc.b)
	}
	if len(entries) == 1 && !root {
		e := entries[0]
		enc.leaf(e.Key, e.RID, e.Tomb)
		return w.write(enc.b)
	}
	// Longest common prefix of the range beyond depth.
	first, last := entries[0].Key[depth:], entries[len(entries)-1].Key[depth:]
	lcp := matchLen(first, last)
	if root {
		lcp = 0 // the permanent in-memory root has an empty prefix; match it
	}
	prefix := first[:lcp]
	pos := depth + lcp
	var termOff int64
	rest := entries
	if len(rest[0].Key) == pos {
		e := rest[0]
		enc.leaf(e.Key, e.RID, e.Tomb)
		termOff = w.write(enc.b)
		rest = rest[1:]
	}
	var crefs []cref
	for len(rest) > 0 {
		b := rest[0].Key[pos]
		j := 1
		for j < len(rest) && rest[j].Key[pos] == b {
			j++
		}
		crefs = append(crefs, cref{b, buildRange(rest[:j], pos+1, w, enc, false)})
		rest = rest[j:]
	}
	enc.inner(prefix, termOff, crefs)
	return w.write(enc.b)
}

// --- reading -------------------------------------------------------------

// Component is a read-only serialized tree accessed through a ByteSource
// (typically an SRSS mmap view over compute-side PM or the storage tier).
type Component struct {
	src     ByteSource
	rootOff int64
	length  int64
	count   int64
}

// OpenComponent wraps a serialized region for reading.
func OpenComponent(src ByteSource, res SerializeResult) (*Component, error) {
	b, err := src.At(0, 1)
	if err != nil {
		return nil, err
	}
	if b[0] != regionMagic {
		return nil, fmt.Errorf("art: bad region magic %#x", b[0])
	}
	if res.RootOff <= 0 || res.RootOff >= res.Length {
		return nil, fmt.Errorf("art: root offset %d outside region of %d", res.RootOff, res.Length)
	}
	return &Component{src: src, rootOff: res.RootOff, length: res.Length, count: res.Count}, nil
}

// Count returns the number of entries (tombstones included).
func (c *Component) Count() int64 { return c.count }

// Length returns the serialized size in bytes.
func (c *Component) Length() int64 { return c.length }

// diskNode is a parsed node.
type diskNode struct {
	leaf bool
	// leaf fields
	key  []byte
	rid  uint64
	tomb bool
	// inner fields
	prefix     []byte
	termOff    int64
	childBytes []byte
	childOffs  []int64
}

type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) byte() byte {
	if d.err != nil || d.pos >= len(d.b) {
		d.err = errors.New("art: truncated node")
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.err = errors.New("art: bad uvarint")
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) bytes() []byte {
	n := int(d.uvarint())
	if d.err != nil {
		return nil
	}
	if d.pos+n > len(d.b) {
		d.err = errors.New("art: truncated bytes")
		return nil
	}
	v := d.b[d.pos : d.pos+n]
	d.pos += n
	return v
}

func (c *Component) parse(off int64) (*diskNode, error) {
	n := maxNodeSize
	if int64(n) > c.length-off {
		n = int(c.length - off)
	}
	if n <= 0 {
		return nil, fmt.Errorf("art: node offset %d out of region", off)
	}
	raw, err := c.src.At(off, n)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: raw}
	dn := &diskNode{}
	switch tag := d.byte(); tag {
	case tagLeaf:
		dn.leaf = true
		dn.key = d.bytes()
		dn.rid = d.uvarint()
		dn.tomb = d.byte() == 1
	case tagInner:
		dn.prefix = d.bytes()
		dn.termOff = int64(d.uvarint())
		nc := int(d.uvarint())
		if d.err == nil && nc > 256 {
			return nil, fmt.Errorf("art: corrupt child count %d", nc)
		}
		dn.childBytes = make([]byte, 0, nc)
		dn.childOffs = make([]int64, 0, nc)
		for i := 0; i < nc && d.err == nil; i++ {
			dn.childBytes = append(dn.childBytes, d.byte())
			dn.childOffs = append(dn.childOffs, int64(d.uvarint()))
		}
	default:
		return nil, fmt.Errorf("art: bad node tag %#x at %d", tag, off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return dn, nil
}

// childOff returns the offset for byte b (0 if absent) via binary search.
func (dn *diskNode) childOff(b byte) int64 {
	lo, hi := 0, len(dn.childBytes)
	for lo < hi {
		mid := (lo + hi) / 2
		if dn.childBytes[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(dn.childBytes) && dn.childBytes[lo] == b {
		return dn.childOffs[lo]
	}
	return 0
}

// Search looks key up in the serialized tree.
func (c *Component) Search(key []byte) (rid uint64, found, tomb bool, err error) {
	off := c.rootOff
	depth := 0
	for {
		dn, err := c.parse(off)
		if err != nil {
			return 0, false, false, err
		}
		if dn.leaf {
			if bytes.Equal(dn.key, key) {
				return dn.rid, true, dn.tomb, nil
			}
			return 0, false, false, nil
		}
		m := matchLen(dn.prefix, key[depth:])
		if m < len(dn.prefix) {
			return 0, false, false, nil
		}
		depth += len(dn.prefix)
		if depth == len(key) {
			if dn.termOff == 0 {
				return 0, false, false, nil
			}
			l, err := c.parse(dn.termOff)
			if err != nil {
				return 0, false, false, err
			}
			return l.rid, true, l.tomb, nil
		}
		next := dn.childOff(key[depth])
		if next == 0 {
			return 0, false, false, nil
		}
		off = next
		depth++
	}
}

// Scan visits entries with from <= key < to in ascending order.
func (c *Component) Scan(from, to []byte, fn func(key []byte, rid uint64, tomb bool) bool) error {
	_, err := c.scanAt(c.rootOff, from, to, fn)
	return err
}

func (c *Component) scanAt(off int64, from, to []byte, fn func([]byte, uint64, bool) bool) (bool, error) {
	dn, err := c.parse(off)
	if err != nil {
		return false, err
	}
	if dn.leaf {
		if keyInRange(dn.key, from, to) {
			return fn(dn.key, dn.rid, dn.tomb), nil
		}
		return true, nil
	}
	if dn.termOff != 0 {
		l, err := c.parse(dn.termOff)
		if err != nil {
			return false, err
		}
		if keyInRange(l.key, from, to) {
			if !fn(l.key, l.rid, l.tomb) {
				return false, nil
			}
		}
	}
	for i, b := range dn.childBytes {
		_ = b
		cont, err := c.scanAt(dn.childOffs[i], from, to, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// Iter returns an iterator over all entries in ascending key order, used by
// component merges.
func (c *Component) Iter() *CompIter {
	return &CompIter{c: c, stack: []iterFrame{{off: c.rootOff}}}
}

type iterFrame struct {
	off      int64
	dn       *diskNode
	termDone bool
	next     int // next child index
}

// CompIter iterates a Component in key order.
type CompIter struct {
	c     *Component
	stack []iterFrame
	err   error
}

// Err returns the first I/O or corruption error encountered.
func (it *CompIter) Err() error { return it.err }

// Next returns the next entry; ok is false at the end (or on error; check
// Err).
func (it *CompIter) Next() (e Entry, ok bool) {
	for len(it.stack) > 0 {
		f := &it.stack[len(it.stack)-1]
		if f.dn == nil {
			dn, err := it.c.parse(f.off)
			if err != nil {
				it.err = err
				return Entry{}, false
			}
			f.dn = dn
		}
		if f.dn.leaf {
			e := Entry{Key: f.dn.key, RID: f.dn.rid, Tomb: f.dn.tomb}
			it.stack = it.stack[:len(it.stack)-1]
			return e, true
		}
		if !f.termDone {
			f.termDone = true
			if f.dn.termOff != 0 {
				l, err := it.c.parse(f.dn.termOff)
				if err != nil {
					it.err = err
					return Entry{}, false
				}
				return Entry{Key: l.key, RID: l.rid, Tomb: l.tomb}, true
			}
		}
		if f.next < len(f.dn.childOffs) {
			off := f.dn.childOffs[f.next]
			f.next++
			it.stack = append(it.stack, iterFrame{off: off})
			continue
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
	return Entry{}, false
}
