package core

import "encoding/binary"

// Order-preserving (memcomparable) key encoding for index keys: encoded keys
// compare bytewise in the same order as the typed tuples they encode.
//
//	NULL    := 0x00
//	int     := 0x01, 8 bytes big-endian with the sign bit flipped
//	float   := 0x02, 8 bytes big-endian IEEE bits, sign-adjusted
//	string  := 0x03, escaped bytes, terminator
//	bytes   := 0x03 (same domain as string for ordering)
//
// Variable-length values are escaped so that no encoded value is a prefix of
// another: 0x00 bytes become 0x00 0xFF, and the value ends with 0x00 0x01.
// NULL sorts before everything; kind tags keep mixed-kind columns ordered
// deterministically.

const (
	keyTagNull  = 0x00
	keyTagInt   = 0x01
	keyTagFloat = 0x02
	keyTagStr   = 0x03
)

// EncodeKey appends the order-preserving encoding of vals to buf.
func EncodeKey(buf []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.kind {
		case 0:
			buf = append(buf, keyTagNull)
		case KindInt:
			buf = appendKeyInt(buf, v.num)
		case KindFloat:
			buf = appendKeyFloat(buf, v.num)
		case KindString, KindBytes:
			buf = appendKeyStr(buf, v.s)
		}
	}
	return buf
}

func appendKeyInt(buf []byte, i uint64) []byte {
	buf = append(buf, keyTagInt)
	return binary.BigEndian.AppendUint64(buf, i^(1<<63))
}

func appendKeyFloat(buf []byte, bits uint64) []byte {
	buf = append(buf, keyTagFloat)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative floats: invert everything
	} else {
		bits |= 1 << 63 // positive: set sign bit
	}
	return binary.BigEndian.AppendUint64(buf, bits)
}

// appendKeyStr escapes p, which is a string (a Value's payload) or a byte
// slice (a column read in place from an encoded row).
func appendKeyStr[T string | []byte](buf []byte, p T) []byte {
	buf = append(buf, keyTagStr)
	for i := 0; i < len(p); i++ {
		if c := p[i]; c == 0x00 {
			buf = append(buf, 0x00, 0xFF)
		} else {
			buf = append(buf, c)
		}
	}
	return append(buf, 0x00, 0x01)
}

// KeySuccessor returns the smallest key strictly greater than every key
// having k as a prefix: k itself is exclusive-range friendly because
// appending 0xFF... forever is approximated by incrementing the last
// possible byte. Used to turn "prefix scan" into a [k, successor) range.
func KeySuccessor(k []byte) []byte {
	out := make([]byte, len(k), len(k)+1)
	copy(out, k)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	// All 0xFF: no successor; return a key longer than any real key.
	return append(out, 0xFF)
}

// EncodeRIDSuffix appends a RID in big-endian to a secondary-index key,
// making duplicate secondary keys unique per record while preserving key
// order grouping.
func EncodeRIDSuffix(buf []byte, rid uint64) []byte {
	return binary.BigEndian.AppendUint64(buf, rid)
}
