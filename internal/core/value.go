// Package core implements the HiEngine storage engine: a log-centric MVCC
// engine built on partitioned indirection arrays (Section 4.1), redo-only
// distributed logging with compute-side persistence (Section 4.2), dataless
// checkpoints with parallel recovery (Section 4.3), epoch-based garbage
// collection and log compaction (Section 4.4), LSM-like persistent ART
// indexes (Section 4.5) and a snapshot-isolation MVCC protocol with early
// commit (Section 5).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// Kind enumerates column types.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer.
	KindInt Kind = iota + 1
	// KindFloat is a 64-bit float.
	KindFloat
	// KindString is a variable-length string.
	KindString
	// KindBytes is a variable-length byte string.
	KindBytes
)

// String returns the type name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is one typed column value. The zero Value is NULL. It is 32 bytes:
// int and float share the num word, string and bytes share s. A Value is
// immutable and so is its payload: B copies the slice it is given and Bytes
// returns a fresh copy, and a Value RowArena.AppendRow or DecodeKeptRows
// decodes shares bytes that are never rewritten (a raw read's, a client's
// receive arena) -- so no Value aliases a buffer someone may reuse, except
// one DecodeRowBorrowed decodes, which lives no longer than its buffer
// (Clone gives it its own payload).
type Value struct {
	kind Kind   // 0 = NULL
	num  uint64 // KindInt: the int64; KindFloat: the IEEE bits
	s    string // KindString and KindBytes payload
}

// Null is the NULL value.
var Null = Value{}

// I wraps an integer.
func I(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// F wraps a float.
func F(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// S wraps a string.
func S(v string) Value { return Value{kind: KindString, s: v} }

// B wraps a copy of a byte slice.
func B(v []byte) Value { return Value{kind: KindBytes, s: string(v)} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == 0 }

// Kind returns the value's type (0 for NULL).
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload (0 unless KindInt).
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.num)
}

// Float returns the float payload (0 unless KindFloat).
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.num)
}

// Str returns the string payload ("" unless KindString).
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return v.s
}

// Bytes returns a copy of the bytes payload (nil unless KindBytes).
func (v Value) Bytes() []byte {
	if v.kind != KindBytes {
		return nil
	}
	return []byte(v.s)
}

// Clone returns v with a payload of its own: what a holder of a borrowed
// Value (DecodeRowBorrowed) keeps past the buffer's life.
func (v Value) Clone() Value {
	if v.kind == KindString || v.kind == KindBytes {
		v.s = strings.Clone(v.s)
	}
	return v
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case 0:
		return "NULL"
	case KindInt:
		return fmt.Sprintf("%d", v.Int())
	case KindFloat:
		return fmt.Sprintf("%g", v.Float())
	case KindString:
		return fmt.Sprintf("%q", v.s)
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.s)
	default:
		return "?"
	}
}

// Equal compares two values for equality (same kind and payload).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case 0:
		return true
	case KindInt:
		return v.num == o.num
	case KindFloat:
		return v.Float() == o.Float()
	case KindString, KindBytes:
		return v.s == o.s
	}
	return false
}

// Row is one tuple.
type Row = []Value

// ErrRowCorrupt is returned when a stored payload cannot be decoded.
var ErrRowCorrupt = errors.New("core: corrupt row payload")

// EncodeRow serializes a row. The encoding is compact, not
// order-preserving; ordered index keys use EncodeKey.
//
//	row    := nCols uvarint, col*
//	col    := kindByte [payload]
//	int    := zigzag varint
//	float  := 8 bytes little-endian IEEE bits
//	string := uvarint len, bytes
func EncodeRow(buf []byte, row Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = appendCol(buf, v)
	}
	return buf
}

// appendCol appends one column: the kind byte and the value's payload.
func appendCol(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindInt:
		buf = binary.AppendVarint(buf, int64(v.num))
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, v.num)
	case KindString, KindBytes:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		buf = append(buf, v.s...)
	}
	return buf
}

// colLen is len(appendCol(nil, v)).
func colLen(v Value) int {
	switch v.kind {
	case KindInt:
		x := int64(v.num)
		return 1 + uvarintLen(uint64(x<<1)^uint64(x>>63)) // zigzag, as AppendVarint
	case KindFloat:
		return 1 + 8
	case KindString, KindBytes:
		return 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
	}
	return 1
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// encodedRowLen is len(EncodeRow(nil, row)): what a write reserves in the
// log for the row it is about to encode there.
func encodedRowLen(row Row) int {
	n := uvarintLen(uint64(len(row)))
	for _, v := range row {
		n += colLen(v)
	}
	return n
}

// DecodeRow parses an encoded row. String and bytes payloads are copied so
// the result does not alias storage-backed buffers.
func DecodeRow(buf []byte) (Row, error) {
	row, _, err := decodeRowPrefix(nil, buf, false)
	return row, err
}

// DecodeRowBorrowed parses an encoded row from the front of buf and returns
// the unconsumed remainder, so callers can decode rows packed back to back.
// The row is decoded into dst's backing array when it has room (a caller
// that owns dst reuses one row across decodes), into a fresh one otherwise.
// Unlike DecodeRow's, the row's string and bytes values point into buf, so
// the row is valid only while buf's bytes are -- a request's arguments,
// decoded straight out of its frame, live as long as the request. A holder
// that keeps one of them longer keeps a Clone.
func DecodeRowBorrowed(dst Row, buf []byte) (Row, []byte, error) {
	return decodeRowPrefix(dst, buf, true)
}

// decodeRowPrefix is DecodeRowBorrowed, or with borrow false DecodeRow's
// decode: all of the row's string and bytes values share one private copy of
// the row's bytes.
func decodeRowPrefix(dst Row, buf []byte, borrow bool) (Row, []byte, error) {
	end, nVals, hasVar, err := measureRows(buf, 1)
	if err != nil {
		return nil, nil, err
	}
	row := dst[:0]
	if row == nil || cap(row) < nVals {
		row = make(Row, nVals)
	}
	row = row[:nVals]
	fillRows(buf[:end], 1, hasVar, borrow, row, nil)
	return row, buf[end:], nil
}

// SkipRows validates n rows packed back to back at the front of data, as
// DecodeRows does, and returns the remainder without decoding them.
func SkipRows(data []byte, n int) ([]byte, error) {
	end, _, _, err := measureRows(data, n)
	if err != nil {
		return nil, err
	}
	return data[end:], nil
}

// DecodeRows parses n rows packed back to back at the front of data (the
// wire protocol's result encoding) and returns the unconsumed remainder.
// The rows' headers and values, and a copy of the bytes every string and
// bytes value points into, are carved from dst (RowSlab), so nothing
// aliases data; a nil dst makes them fresh: three allocations however many
// rows. Either way they are the caller's to keep. Nothing is allocated before
// data has been validated, so a hostile count cannot pre-size anything
// beyond the bytes actually present.
func DecodeRows(dst *RowSlab, data []byte, n int) ([]Row, []byte, error) {
	end, nVals, hasVar, err := measureRows(data, n)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, data, nil
	}
	rows, vals := dst.take(n, nVals)
	p := data[:end]
	if hasVar {
		p = dst.own(p)
	}
	fillRows(p, n, hasVar, true, vals, rows)
	return rows, data[end:], nil
}

// DecodeKeptRows is DecodeRows over bytes that are never rewritten -- a
// client's receive arena (wire.FrameReader.ReadKept) -- without the copy:
// every string and bytes value aliases data, and a Value kept pins the
// memory data lies in. The row headers and values are dst's, reused from its
// previous decode when they have room: the rows that decode returned are
// overwritten, a Value taken out of one stays valid. A nil dst makes them
// fresh.
func DecodeKeptRows(dst *RowArena, data []byte, n int) ([]Row, []byte, error) {
	end, nVals, hasVar, err := measureRows(data, n)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, data, nil
	}
	rows, vals := dst.take(n, nVals)
	fillRows(data[:end], n, hasVar, true, vals, rows)
	return rows, data[end:], nil
}

// RowSlab chunk sizes: 64 KiB of row bytes, 1,024 values (32 KiB) and 512
// row headers (12 KiB), which run out together for rows of two columns and
// 128 bytes.
const (
	slabBytes = 64 << 10
	slabVals  = 1 << 10
	slabRows  = 1 << 9
)

// RowSlab carves results from append-only chunks: what it hands out it
// never hands out again, so rows decoded into it stay valid for good, and a
// chunk is garbage once nothing references it. A result wider than a quarter
// of a chunk gets an array of its own. The values point into the slab's own
// copy of the row bytes, so what a kept row pins is the slab's chunks alone,
// whatever traffic its encoding arrived amid. A client connection's cursor
// pages are decoded into one.
type RowSlab struct {
	rows  []Row
	vals  []Value
	bytes []byte
}

func (s *RowSlab) take(n, nVals int) ([]Row, []Value) {
	if s == nil {
		return make([]Row, n), make([]Value, nVals)
	}
	return carve(&s.rows, n, slabRows), carve(&s.vals, nVals, slabVals)
}

func (s *RowSlab) own(p []byte) []byte {
	if s == nil {
		return append([]byte(nil), p...)
	}
	c := carve(&s.bytes, len(p), slabBytes)
	copy(c, p)
	return c
}

// carve hands out the next n elements of *chunk, starting a chunk of size
// when the current one has no room, or a slice of its own for n over a
// quarter of size. A carved slice is capped at its length, so appending to
// it never reaches its neighbour.
func carve[T any](chunk *[]T, n, size int) []T {
	if n > size/4 {
		return make([]T, n)
	}
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, size)
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// maxRowScratch bounds the decoding scratch a session or a statement
// retains between calls, so one wide result does not pin its size for the
// holder's life.
const maxRowScratch = 64 << 10

// RowArena is a destination DecodeKeptRows reuses: the row headers and the
// Value arena of the last result decoded into it. Arrays that together
// exceed maxRowScratch bytes are used once and not kept.
type RowArena struct {
	rows []Row
	vals []Value
}

// take returns n row headers and nVals values: a's arrays when they have
// room, fresh ones otherwise (always, for a nil a). What it does not hand
// out is cleared, so a's arrays reference nothing of an earlier result.
func (a *RowArena) take(n, nVals int) ([]Row, []Value) {
	if a == nil {
		return make([]Row, n), make([]Value, nVals)
	}
	if cap(a.rows) < n {
		a.rows = make([]Row, n)
	}
	if cap(a.vals) < nVals {
		a.vals = make([]Value, nVals)
	}
	rows, vals := a.rows[:n], a.vals[:nVals]
	a.trim(n, nVals)
	return rows, vals
}

// trim clears what follows the first n rows and nVals values, which a
// result holds, and lets go of arrays grown past maxRowScratch.
func (a *RowArena) trim(n, nVals int) {
	clear(a.rows[n:cap(a.rows)])
	clear(a.vals[nVals:cap(a.vals)])
	if cap(a.rows)*int(unsafe.Sizeof(Row(nil)))+cap(a.vals)*int(unsafe.Sizeof(Value{})) > maxRowScratch {
		*a = RowArena{}
	}
}

// AppendRow decodes the given columns of the row v is on (nil: every
// column) into a new row at the end of the arena's current result, which
// Rows hands out. A string or bytes value aliases the bytes v was Reset on,
// so those must never be rewritten: a raw read's payload qualifies (see the
// reads in txn.go), a buffer its owner reuses does not.
func (a *RowArena) AppendRow(v *RowView, cols []int) error {
	start := len(a.vals)
	if cols == nil {
		for c := 0; c < v.NumCols(); c++ {
			a.vals = append(a.vals, v.col(c))
		}
	} else {
		for _, c := range cols {
			if c >= v.NumCols() {
				a.vals = a.vals[:start]
				return ErrRowCorrupt
			}
			a.vals = append(a.vals, v.col(c))
		}
	}
	a.rows = append(a.rows, a.vals[start:len(a.vals):len(a.vals)])
	return nil
}

// Rows returns the rows AppendRow added since the last Rows (nil for none)
// and starts the next result over the same arrays: the rows are valid until
// the arena's next use, the Values in them for good.
func (a *RowArena) Rows() []Row {
	rows, pos := a.rows, 0
	for i, r := range rows {
		// Growing the Value arena moved the rows appended before it.
		rows[i] = a.vals[pos : pos+len(r) : pos+len(r)]
		pos += len(r)
	}
	a.rows, a.vals = a.rows[:0], a.vals[:0]
	a.trim(len(rows), pos)
	if len(rows) == 0 {
		return nil
	}
	return rows
}

// maxRowCols bounds a row's declared column count.
const maxRowCols = 1 << 20

// rowHeader reads a row's column count at p[pos:]. Every column occupies at
// least its kind byte, so a count above the bytes that follow is corrupt --
// which also keeps a hostile header from sizing any allocation.
func rowHeader(p []byte, pos int) (nCols, next int, err error) {
	n, w := uvarint(p[pos:])
	if w <= 0 || n > maxRowCols || n > uint64(len(p)-pos-w) {
		return 0, 0, ErrRowCorrupt
	}
	return int(n), pos + w, nil
}

// uvarint is binary.Uvarint with the one-byte case -- every column count and
// every length below 128, so nearly every call -- decided without the loop.
func uvarint(p []byte) (uint64, int) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), 1
	}
	return binary.Uvarint(p)
}

// colEnd returns the offset just past the column whose kind byte is p[pos].
func colEnd(p []byte, pos int) (int, error) {
	if pos >= len(p) {
		return 0, ErrRowCorrupt
	}
	k := Kind(p[pos])
	pos++
	switch k {
	case 0:
		return pos, nil
	case KindInt:
		_, w := binary.Varint(p[pos:])
		if w <= 0 {
			return 0, ErrRowCorrupt
		}
		return pos + w, nil
	case KindFloat:
		if pos+8 > len(p) {
			return 0, ErrRowCorrupt
		}
		return pos + 8, nil
	case KindString, KindBytes:
		l, w := uvarint(p[pos:])
		if w <= 0 {
			return 0, ErrRowCorrupt
		}
		pos += w
		// Compare in uint64: pos+int(l) would overflow for a hostile l.
		if l > uint64(len(p)-pos) {
			return 0, ErrRowCorrupt
		}
		return pos + int(l), nil
	default:
		return 0, ErrRowCorrupt
	}
}

// measureRows validates n back-to-back rows at the front of p without
// allocating: end is the offset past the last one, nVals their total column
// count, hasVar whether any column is a string or bytes.
func measureRows(p []byte, n int) (end, nVals int, hasVar bool, err error) {
	if n < 0 || n > len(p) { // a row is at least its one-byte header
		return 0, 0, false, ErrRowCorrupt
	}
	pos := 0
	for r := 0; r < n; r++ {
		nCols, next, err := rowHeader(p, pos)
		if err != nil {
			return 0, 0, false, err
		}
		pos = next
		for c := 0; c < nCols; c++ {
			if pos < len(p) && Kind(p[pos]) >= KindString {
				hasVar = true
			}
			if pos, err = colEnd(p, pos); err != nil {
				return 0, 0, false, err
			}
		}
		nVals += nCols
	}
	return pos, nVals, hasVar, nil
}

// fillRows decodes the n rows measureRows validated in p into vals, carving
// rows[i] out of vals when rows is non-nil. hasVar says string or bytes
// values need bytes to point into: a private copy of p, or with borrow p
// itself.
func fillRows(p []byte, n int, hasVar, borrow bool, vals []Value, rows []Row) {
	var blob string
	switch {
	case hasVar && borrow:
		blob = unsafe.String(unsafe.SliceData(p), len(p))
	case hasVar:
		blob = string(p)
	}
	pos, vi := 0, 0
	for r := 0; r < n; r++ {
		nCols, w := uvarint(p[pos:])
		pos += w
		row := vals[vi : vi+int(nCols) : vi+int(nCols)]
		vi += int(nCols)
		if rows != nil {
			rows[r] = row
		}
		for c := range row {
			k := Kind(p[pos])
			pos++
			switch k {
			case KindInt:
				x, w := binary.Varint(p[pos:])
				pos += w
				row[c] = I(x)
			case KindFloat:
				row[c] = Value{kind: KindFloat, num: binary.LittleEndian.Uint64(p[pos:])}
				pos += 8
			case KindString, KindBytes:
				l, w := uvarint(p[pos:])
				pos += w
				row[c] = Value{kind: k, s: blob[pos : pos+int(l)]}
				pos += int(l)
			}
		}
	}
}
