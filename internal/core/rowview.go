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

// ColValue names a column by position and gives a value for it: one SET
// assignment or one WHERE equality of a statement already resolved against
// the table's schema.
type ColValue struct {
	Col int
	Val Value
}

// assigned returns the value set gives column c: the last assignment wins,
// as when they are applied in order.
func assigned(set []ColValue, c int) (Value, bool) {
	for i := len(set) - 1; i >= 0; i-- {
		if set[i].Col == c {
			return set[i].Val, true
		}
	}
	return Value{}, false
}

// SplicedLen is the length of the row AppendSplice(nil, set) builds. A set
// column the row does not have is an error.
func (v *RowView) SplicedLen(set []ColValue) (int, error) {
	n := len(v.p)
	for i, cv := range set {
		if cv.Col < 0 || cv.Col >= v.NumCols() {
			return 0, ErrRowCorrupt
		}
		if _, last := assigned(set[i+1:], cv.Col); !last {
			n += colLen(cv.Val) - (v.off[cv.Col+1] - v.off[cv.Col])
		}
	}
	return n, nil
}

// AppendSplice appends to dst this row with each column in set replaced by
// its value: the header and the other columns' bytes are copied verbatim,
// the set columns encoded in place -- exactly EncodeRow of the decoded row
// with the assignments applied. A set column the row does not have is an
// error.
func (v *RowView) AppendSplice(dst []byte, set []ColValue) ([]byte, error) {
	for _, cv := range set {
		if cv.Col < 0 || cv.Col >= v.NumCols() {
			return nil, ErrRowCorrupt
		}
	}
	dst = append(dst, v.p[:v.off[0]]...)
	for c := 0; c < v.NumCols(); c++ {
		if val, ok := assigned(set, c); ok {
			dst = appendCol(dst, val)
		} else {
			dst = append(dst, v.p[v.off[c]:v.off[c+1]]...)
		}
	}
	return dst, nil
}

// sameCols reports whether the given columns hold the same bytes in v and
// o. Stored rows are in EncodeRow's one form, so for them equal values mean
// equal bytes and this decides whether an index key changed without
// building either key.
func (v *RowView) sameCols(o *RowView, cols []int) bool {
	for _, c := range cols {
		if c >= v.NumCols() || c >= o.NumCols() ||
			string(v.p[v.off[c]:v.off[c+1]]) != string(o.p[o.off[c]:o.off[c+1]]) {
			return false
		}
	}
	return true
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
