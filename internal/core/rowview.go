package core

import (
	"encoding/binary"
	"math"
)

// RowView is the late-materialisation primitive: the column layout of one
// encoded row (a version payload, a log record body, a wire row), found in
// a single pass, on top of which columns are projected, compared and turned
// into index keys without building a Value. A RowView allocates nothing
// once its offset table has grown to the widest row it has seen, so scans
// reuse one. It aliases the bytes it was Reset on and is valid for as long
// as they are.
type RowView struct {
	p   []byte
	off []int // off[i] is column i's kind byte; off[len(off)-1] the row's end
}

// Reset walks the encoded row at the front of p and returns the unconsumed
// remainder. It accepts and rejects exactly what DecodeRowPrefix does.
func (v *RowView) Reset(p []byte) (rest []byte, err error) {
	nCols, pos, err := rowHeader(p, 0)
	if err != nil {
		return nil, err
	}
	v.off = append(v.off[:0], pos)
	for c := 0; c < nCols; c++ {
		if pos, err = colEnd(p, pos); err != nil {
			return nil, err
		}
		v.off = append(v.off, pos)
	}
	v.p = p[:pos]
	return p[pos:], nil
}

// NumCols returns the row's column count.
func (v *RowView) NumCols() int { return len(v.off) - 1 }

// AppendProjection appends to dst the encoded row made of the given columns
// in the given order: a new column-count header, then each column's bytes
// spliced verbatim -- exactly EncodeRow of the projected DecodeRow. nil
// cols means every column.
func (v *RowView) AppendProjection(dst []byte, cols []int) ([]byte, error) {
	if cols == nil {
		return append(dst, v.p...), nil
	}
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		if c >= v.NumCols() {
			return nil, ErrRowCorrupt
		}
		dst = append(dst, v.p[v.off[c]:v.off[c+1]]...)
	}
	return dst, nil
}

// ColEqual reports whether column c holds val, with Value.Equal's meaning.
// A column the row does not have equals nothing.
func (v *RowView) ColEqual(c int, val Value) bool {
	if c >= v.NumCols() {
		return false
	}
	col := v.p[v.off[c]+1 : v.off[c+1]]
	if Kind(v.p[v.off[c]]) != val.kind {
		return false
	}
	switch val.kind {
	case KindInt:
		x, _ := binary.Varint(col)
		return uint64(x) == val.num
	case KindFloat:
		return math.Float64frombits(binary.LittleEndian.Uint64(col)) == val.Float()
	case KindString, KindBytes:
		_, w := uvarint(col)
		return string(col[w:]) == val.s
	}
	return true // NULL
}

// AppendKey appends the order-preserving key encoding of the given columns,
// as EncodeKey would for their decoded values.
func (v *RowView) AppendKey(dst []byte, cols []int) ([]byte, error) {
	for _, c := range cols {
		if c >= v.NumCols() {
			return nil, ErrRowCorrupt
		}
		col := v.p[v.off[c]+1 : v.off[c+1]]
		switch Kind(v.p[v.off[c]]) {
		case 0:
			dst = append(dst, keyTagNull)
		case KindInt:
			x, _ := binary.Varint(col)
			dst = appendKeyInt(dst, uint64(x))
		case KindFloat:
			dst = appendKeyFloat(dst, binary.LittleEndian.Uint64(col))
		default:
			_, w := uvarint(col)
			dst = appendKeyStr(dst, col[w:])
		}
	}
	return dst, nil
}
