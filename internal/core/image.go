package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// The checkpoint image (Section 4.3) holds, for every row, what recovery
// needs to bring the row back without reading it: its permanent log address
// and CSN, its record's framing, and its index keys. Never the row itself.
//
// After its header byte the image is a sequence of blocks:
//
//	block := body length (uint32 LE) | body | CRC-32C of body (uint32 LE)
//
// Every delta below starts from zero in each block, so blocks decode on
// their own and recovery loads them on several threads. A body is a sequence
// of table runs: a uvarint table ID, a uvarint key count (the table's index
// count), the table's entries in ascending RID order, and a uvarint 0. An
// entry is
//
//   - uvarint head = delta<<3 | resized<<2 | first<<1 | switched. delta (>= 1)
//     is the RID minus the run's previous RID (0 before the first). switched
//     says the segment key (addr>>32) differs from the block's previous
//     entry's (0 before the first). first says the record is its
//     transaction's first, which is charged the CSN trailer. resized says the
//     payload length differs from that of the previous entry under the same
//     segment key (below: the cursor's);
//   - uvarint segment key, if switched;
//   - uvarint payload length, if resized;
//   - varint (zigzag) offset delta: addr's low 32 bits minus the end of the
//     cursor's record (its offset plus wal.RecordLen, plus the CSN trailer's
//     length if first: a one-record transaction's end), modulo 2^64;
//   - varint (zigzag) CSN delta against the cursor's, modulo 2^64;
//   - one key per index, coded against the cursor's key of the same index:
//     uvarint h = a<<4 | min(t,7)<<1 | (d != a), uvarint d if d != a,
//     uvarint t-7 if t >= 7, then a bytes. The key is the previous one with
//     its last d+t bytes dropped, the a bytes appended, then the previous
//     key's last t bytes. A non-unique index's key is stored without its RID
//     suffix.
//
// A segment key's cursor starts at zero in each block, and its payload length
// and keys (empty) in each run. Rows in RID order lie in log order within each
// stream's segments, so under its segment key a record usually starts where
// the previous one ended, is as long, and has keys a byte or two away from
// its: an entry is a one-byte head, a one-byte offset delta, a one-byte CSN
// delta and about two bytes per key, however the streams interleave their
// RIDs. SRSS is memory-only, so no image of an older format ever has to
// load.

const checkpointHeader byte = 'K'

// imageBlockSize is the body size at which a checkpoint flushes a block.
const imageBlockSize = 64 << 10

// maxImageRID is the largest RID a PIA addresses: 2^16 partitions of at most
// 2^32 slots.
const maxImageRID = 1<<48 - 1

// maxImageKeys bounds a run's key count: a larger one is damage, not a table.
const maxImageKeys = 255

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// imageEntry is one row of a checkpoint image. keys[i] is its index-i key
// (without a non-unique index's RID suffix).
type imageEntry struct {
	table     uint32
	rid       RID
	addr, csn uint64
	first     bool // the record is its transaction's first (flagCSN)
	n         int  // payload length
	keys      [][]byte
}

// imageCursor is what the next entry under one segment key is coded
// against: where the block's previous record under the key ended and its
// CSN, and the run's previous entry's payload length and keys under it.
type imageCursor struct {
	end, csn uint64
	n        int
	keys     [][]byte
}

// clearRun empties c's run state for a run of nkeys keys an entry.
func (c *imageCursor) clearRun(nkeys int) {
	c.n = 0
	if cap(c.keys) < nkeys {
		c.keys = append(c.keys[:cap(c.keys)], make([][]byte, nkeys-cap(c.keys))...)
	}
	c.keys = c.keys[:nkeys]
	for i := range c.keys {
		c.keys[i] = c.keys[i][:0]
	}
}

// imageState is the delta state an image's writer and reader keep alike.
type imageState struct {
	run   bool // a table run is open
	table uint32
	nkeys int
	rid   RID
	key   uint64 // the previous entry's segment key
	cur   int    // its cursor in curs
	curs  []imageCursor
	at    map[uint64]int // segment key -> its cursor in curs
}

// reset starts a block.
func (s *imageState) reset() {
	s.run, s.curs = false, s.curs[:0]
	if s.at == nil {
		s.at = map[uint64]int{}
	}
	clear(s.at)
	s.switchTo(0)
}

// switchTo makes key the current segment key, starting its cursor if the
// block has none.
func (s *imageState) switchTo(key uint64) {
	i, ok := s.at[key]
	if !ok {
		i = len(s.curs)
		if i < cap(s.curs) {
			s.curs = s.curs[:i+1] // reuses the cursor's key buffers
		} else {
			s.curs = append(s.curs, imageCursor{})
		}
		c := &s.curs[i]
		c.end, c.csn = 0, 0
		c.clearRun(s.nkeys)
		s.at[key] = i
	}
	s.key, s.cur = key, i
}

// openRun starts table's run, whose entries carry nkeys keys.
func (s *imageState) openRun(table uint32, nkeys int) {
	s.run, s.table, s.nkeys, s.rid = true, table, nkeys, 0
	for i := range s.curs {
		s.curs[i].clearRun(nkeys)
	}
}

// advance moves the current cursor past entry e's record, at offset off.
func (s *imageState) advance(e *imageEntry, off uint64) {
	c := &s.curs[s.cur]
	c.end, c.csn, c.n = off+uint64(logBytes(e.first, e.table, e.rid, e.n, e.csn)), e.csn, e.n
	s.rid = e.rid
}

// imageWriter encodes a checkpoint image into buf, a block at a time.
type imageWriter struct {
	imageState
	buf   []byte
	open  bool // a block is open
	block int  // where in buf the open block's length word is
}

// add appends one entry. Within a table run RIDs must ascend strictly.
func (w *imageWriter) add(e *imageEntry) {
	if !w.open {
		w.reset()
		w.open, w.block = true, len(w.buf)
		w.buf = append(w.buf, 0, 0, 0, 0)
	}
	if !w.run || e.table != w.table {
		w.endRun()
		w.buf = binary.AppendUvarint(w.buf, uint64(e.table))
		w.buf = binary.AppendUvarint(w.buf, uint64(len(e.keys)))
		w.openRun(e.table, len(e.keys))
	}
	key, off := e.addr>>32, e.addr&math.MaxUint32
	head := uint64(e.rid-w.rid) << 3
	switched := key != w.key
	if switched {
		head |= 1
		w.switchTo(key)
	}
	if e.first {
		head |= 2
	}
	c := &w.curs[w.cur]
	resized := e.n != c.n
	if resized {
		head |= 4
	}
	w.buf = binary.AppendUvarint(w.buf, head)
	if switched {
		w.buf = binary.AppendUvarint(w.buf, key)
	}
	if resized {
		w.buf = binary.AppendUvarint(w.buf, uint64(e.n))
	}
	w.buf = binary.AppendVarint(w.buf, int64(off-c.end))
	w.buf = binary.AppendVarint(w.buf, int64(e.csn-c.csn))
	for i, k := range e.keys {
		w.buf = appendKeyDelta(w.buf, c.keys[i], k)
		c.keys[i] = append(c.keys[i][:0], k...)
	}
	w.advance(e, off)
}

// endRun closes the open table run, if any.
func (w *imageWriter) endRun() {
	if w.run {
		w.buf = append(w.buf, 0)
		w.run = false
	}
}

// closeBlock closes the open block, if any: its length and its checksum.
func (w *imageWriter) closeBlock() {
	if !w.open {
		return
	}
	w.endRun()
	body := w.buf[w.block+4:]
	binary.LittleEndian.PutUint32(w.buf[w.block:], uint32(len(body)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(body, castagnoli))
	w.open = false
}

// appendKeyDelta appends key k coded against prev, its cursor's key of the
// same index.
func appendKeyDelta(buf, prev, k []byte) []byte {
	s := 0
	for s < len(prev) && s < len(k) && prev[s] == k[s] {
		s++
	}
	t := 0
	for t < len(prev)-s && t < len(k)-s && prev[len(prev)-1-t] == k[len(k)-1-t] {
		t++
	}
	d, a := len(prev)-s-t, len(k)-s-t
	h := uint64(a)<<4 | uint64(min(t, 7))<<1
	if d != a {
		h |= 1
	}
	buf = binary.AppendUvarint(buf, h)
	if d != a {
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	if t >= 7 {
		buf = binary.AppendUvarint(buf, uint64(t-7))
	}
	return append(buf, k[s:s+a]...)
}

// imageBlocks splits an image's bytes after its header into its blocks'
// bodies, each checked against its checksum.
func imageBlocks(b []byte) ([][]byte, error) {
	var out [][]byte
	for pos := 0; pos < len(b); {
		if len(b)-pos < 8 {
			return nil, fmt.Errorf("core: corrupt checkpoint image: block cut short at byte %d", pos+1)
		}
		n := uint64(binary.LittleEndian.Uint32(b[pos:]))
		if n > uint64(len(b)-pos-8) {
			return nil, fmt.Errorf("core: corrupt checkpoint image: block at byte %d runs past the image", pos+1)
		}
		body := b[pos+4 : pos+4+int(n)]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[pos+4+int(n):]) {
			return nil, fmt.Errorf("core: corrupt checkpoint image: block at byte %d fails its checksum", pos+1)
		}
		out = append(out, body)
		pos += 8 + int(n)
	}
	return out, nil
}

// imageReader decodes checkpoint image blocks; the first error of a block
// sticks. Its buffers are reused from entry to entry and block to block.
type imageReader struct {
	imageState
	b    []byte
	pos  int
	err  error
	next [][]byte // the key being decoded, per index
}

func (r *imageReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: corrupt checkpoint image: %s at block byte %d", what, r.pos+1)
	}
}

func (r *imageReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return x
}

func (r *imageReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return x
}

// readKey decodes into dst a key coded against prev (appendKeyDelta).
func (r *imageReader) readKey(dst, prev []byte) []byte {
	h := r.uvarint()
	a, d, t := h>>4, h>>4, h>>1&7
	if h&1 != 0 {
		d = r.uvarint()
	}
	if t == 7 {
		x := r.uvarint()
		if x > uint64(len(prev)) {
			r.fail("key suffix out of range")
		}
		t += x
	}
	if r.err != nil {
		return dst
	}
	if a > uint64(len(r.b)-r.pos) || d > uint64(len(prev)) || t > uint64(len(prev))-d {
		r.fail("key out of range")
		return dst
	}
	keep := len(prev) - int(d) - int(t)
	dst = append(dst[:0], prev[:keep]...)
	dst = append(dst, r.b[r.pos:r.pos+int(a)]...)
	dst = append(dst, prev[len(prev)-int(t):]...)
	r.pos += int(a)
	return dst
}

// skipKey passes over a key without decoding it: the bytes it spells are
// checked to be there, not what it drops from its predecessor.
func (r *imageReader) skipKey() {
	h := r.uvarint()
	if h&1 != 0 {
		r.uvarint()
	}
	if h>>1&7 == 7 {
		r.uvarint()
	}
	if a := h >> 4; r.err == nil && a > uint64(len(r.b)-r.pos) {
		r.fail("key out of range")
	} else if r.err == nil {
		r.pos += int(a)
	}
}

// readBlock hands fn every entry of one block's body, with its keys when keys
// is set, else with none. The entry and its keys are the reader's, valid
// during the call only. Bytes that are not a block
// are an error, never a panic: a varint cut short or overlong, a run without
// its end, a RID delta of 0 or one past 48 bits, a segment key or payload
// length past 32 bits, an offset outside [0, 2^32), a key that drops more
// than the previous one holds or spells more bytes than are left.
func (r *imageReader) readBlock(body []byte, keys bool, fn func(e *imageEntry) error) error {
	r.b, r.pos, r.err = body, 0, nil
	r.reset()
	var e imageEntry
	for r.pos < len(r.b) {
		table, nkeys := r.uvarint(), r.uvarint()
		if table > math.MaxUint32 {
			r.fail("table id past 32 bits")
		}
		if nkeys > maxImageKeys {
			r.fail("too many keys")
		}
		if r.err != nil {
			return r.err
		}
		r.openRun(uint32(table), int(nkeys))
		for len(r.next) < r.nkeys {
			r.next = append(r.next, nil)
		}
		for {
			head := r.uvarint()
			if r.err != nil {
				return r.err
			}
			if head == 0 {
				break
			}
			d := head >> 3
			if d == 0 || d > maxImageRID-uint64(r.rid) {
				r.fail("RID delta out of range")
				return r.err
			}
			e.table, e.rid, e.first = r.table, r.rid+RID(d), head&2 != 0
			if head&1 != 0 {
				if key := r.uvarint(); key > math.MaxUint32 {
					r.fail("segment key past 32 bits")
				} else {
					r.switchTo(key)
				}
			}
			c := &r.curs[r.cur]
			e.n = c.n
			if head&4 != 0 {
				if n := r.uvarint(); n > math.MaxUint32 {
					r.fail("payload length past 32 bits")
				} else {
					e.n = int(n)
				}
			}
			dOff, dCSN := r.varint(), r.varint()
			if r.err != nil {
				return r.err
			}
			off := c.end + uint64(dOff)
			if off > math.MaxUint32 {
				r.fail("offset out of range")
				return r.err
			}
			e.csn, e.addr = c.csn+uint64(dCSN), r.key<<32|off
			for i := range c.keys {
				if !keys {
					r.skipKey()
					continue
				}
				r.next[i] = r.readKey(r.next[i], c.keys[i])
				c.keys[i], r.next[i] = r.next[i], c.keys[i]
			}
			if r.err != nil {
				return r.err
			}
			r.advance(&e, off)
			if e.keys = nil; keys {
				e.keys = c.keys
			}
			if err := fn(&e); err != nil {
				return err
			}
		}
	}
	return nil
}
