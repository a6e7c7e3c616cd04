package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{I(0), I(-1), I(math.MaxInt64), I(math.MinInt64)},
		{F(0), F(-1.5), F(math.Pi), F(math.Inf(1))},
		{S(""), S("hello"), S("日本語")},
		{B(nil), B([]byte{0, 1, 2, 255})},
		{Null, I(7), Null, S("x"), Null},
	}
	for _, row := range rows {
		enc := EncodeRow(nil, row)
		dec, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", row, err)
		}
		if len(dec) != len(row) {
			t.Fatalf("arity: got %d want %d", len(dec), len(row))
		}
		for i := range row {
			if !row[i].Equal(dec[i]) {
				t.Fatalf("col %d: got %v want %v", i, dec[i], row[i])
			}
		}
	}
}

func TestRowCodecPropertyRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b []byte) bool {
		row := Row{I(i), F(fl), S(s), B(b), Null}
		dec, err := DecodeRow(EncodeRow(nil, row))
		if err != nil || len(dec) != 5 {
			return false
		}
		// NaN != NaN under Equal's == compare; normalize.
		if math.IsNaN(fl) {
			return math.IsNaN(dec[1].Float())
		}
		for i := range row {
			if !row[i].Equal(dec[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowHostileLength(t *testing.T) {
	// A near-2^64 uvarint payload length must fail as corrupt, not
	// overflow the bounds check into a panicking allocation. These bytes
	// arrive from the network (Exec args), so a panic here is a
	// remote-triggered server crash.
	for _, k := range []Kind{KindString, KindBytes} {
		for _, l := range []uint64{math.MaxUint64, math.MaxUint64 - 7, 1 << 62} {
			buf := []byte{1, byte(k)} // one column of kind k
			buf = binary.AppendUvarint(buf, l)
			row, rest, err := DecodeRowPrefix(nil, buf)
			if err == nil {
				t.Fatalf("kind %v length %d: accepted (row=%v rest=%v)", k, l, row, rest)
			}
		}
	}
}

// TestDecodeRowPrefixIntoDst: a row decodes into the caller's row when it has
// room -- no Row allocated, only the string bytes' private copy -- and into a
// fresh one when it has not, leaving the caller's untouched.
func TestDecodeRowPrefixIntoDst(t *testing.T) {
	dst := make(Row, 0, 3)
	ints, text := EncodeRow(nil, Row{I(1), I(2)}), EncodeRow(nil, Row{I(3), S("three")})
	for _, c := range []struct {
		buf   []byte
		want  Row
		alloc float64
	}{{ints, Row{I(1), I(2)}, 0}, {text, Row{I(3), S("three")}, 1}} {
		row, rest, err := DecodeRowPrefix(dst, c.buf)
		if err != nil || len(rest) != 0 || &row[0] != &dst[:1][0] || !row[0].Equal(c.want[0]) || !row[1].Equal(c.want[1]) {
			t.Fatalf("decode into dst: %v, rest %d, err %v, shares dst %v", row, len(rest), err, &row[0] == &dst[:1][0])
		}
		if got := testing.AllocsPerRun(100, func() { DecodeRowPrefix(dst, c.buf) }); got != c.alloc {
			t.Fatalf("decoding %v into dst allocates %.0f, want %.0f", c.want, got, c.alloc)
		}
	}
	wide := EncodeRow(nil, Row{I(1), I(2), I(3), I(4)})
	row, _, err := DecodeRowPrefix(dst, wide)
	if err != nil || len(row) != 4 || &row[0] == &dst[:1][0] || !dst[:1][0].Equal(I(3)) {
		t.Fatalf("a row wider than dst: %v, err %v; dst holds %v", row, err, dst[:2])
	}
}

func TestDecodeRowCorrupt(t *testing.T) {
	if _, err := DecodeRow([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("absurd column count accepted")
	}
	good := EncodeRow(nil, Row{S("hello")})
	if _, err := DecodeRow(good[:len(good)-2]); err == nil {
		t.Fatal("truncated row accepted")
	}
	bad := append([]byte(nil), good...)
	bad[1] = 99 // bogus kind
	if _, err := DecodeRow(bad); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// valueLess is the semantic order EncodeKey must preserve (same-kind only).
func cmpVals(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	if a.Kind() != b.Kind() {
		if a.Kind() < b.Kind() {
			return -1
		}
		return 1
	}
	switch a.Kind() {
	case KindInt:
		switch {
		case a.Int() < b.Int():
			return -1
		case a.Int() > b.Int():
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case a.Float() < b.Float():
			return -1
		case a.Float() > b.Float():
			return 1
		}
		return 0
	case KindString:
		switch {
		case a.Str() < b.Str():
			return -1
		case a.Str() > b.Str():
			return 1
		}
		return 0
	case KindBytes:
		return bytes.Compare(a.Bytes(), b.Bytes())
	}
	return 0
}

func TestKeyEncodingOrderInts(t *testing.T) {
	vals := []int64{math.MinInt64, -1000000, -1, 0, 1, 42, 1000000, math.MaxInt64}
	for i := 1; i < len(vals); i++ {
		a := EncodeKey(nil, I(vals[i-1]))
		b := EncodeKey(nil, I(vals[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("key order broken: %d !< %d", vals[i-1], vals[i])
		}
	}
}

func TestKeyEncodingOrderFloats(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e100, -1.5, -0.0001, 0, 0.0001, 1.5, 1e100, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a := EncodeKey(nil, F(vals[i-1]))
		b := EncodeKey(nil, F(vals[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("float key order broken: %g !< %g", vals[i-1], vals[i])
		}
	}
}

func TestKeyEncodingOrderStrings(t *testing.T) {
	vals := []string{"", "a", "a\x00", "a\x00b", "aa", "ab", "b"}
	for i := 1; i < len(vals); i++ {
		a := EncodeKey(nil, S(vals[i-1]))
		b := EncodeKey(nil, S(vals[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("string key order broken: %q !< %q", vals[i-1], vals[i])
		}
	}
}

func TestKeyEncodingPropertyOrderPreserving(t *testing.T) {
	f := func(a, b int64, sa, sb string) bool {
		ka := EncodeKey(nil, I(a), S(sa))
		kb := EncodeKey(nil, I(b), S(sb))
		var want int
		if a != b {
			want = cmpVals(I(a), I(b))
		} else {
			want = cmpVals(S(sa), S(sb))
		}
		return bytes.Compare(ka, kb) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyEncodingNoPrefixCollision(t *testing.T) {
	// ("a", "b") must not collide with ("ab", "") style compositions.
	k1 := EncodeKey(nil, S("a"), S("b"))
	k2 := EncodeKey(nil, S("ab"), S(""))
	if bytes.Equal(k1, k2) {
		t.Fatal("composite keys collide")
	}
	if bytes.HasPrefix(k2, EncodeKey(nil, S("a"))) {
		t.Fatal("encoded string is a prefix of a longer one")
	}
}

func TestNullSortsFirst(t *testing.T) {
	n := EncodeKey(nil, Null)
	i := EncodeKey(nil, I(math.MinInt64))
	s := EncodeKey(nil, S(""))
	if bytes.Compare(n, i) >= 0 || bytes.Compare(n, s) >= 0 {
		t.Fatal("NULL does not sort first")
	}
}

func TestKeySuccessor(t *testing.T) {
	cases := []struct{ in, want []byte }{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xFF}, []byte{2}},
		{[]byte{0xFF, 0xFF}, []byte{0xFF, 0xFF, 0xFF}},
	}
	for _, c := range cases {
		got := KeySuccessor(c.in)
		if !bytes.Equal(got, c.want) {
			t.Fatalf("KeySuccessor(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Property: in < succ, and any extension of in < succ.
	f := func(k []byte) bool {
		if len(k) == 0 {
			return true
		}
		succ := KeySuccessor(k)
		ext := append(append([]byte(nil), k...), 0xFE, 0xFE)
		return bytes.Compare(k, succ) < 0 && bytes.Compare(ext, succ) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRIDSuffix(t *testing.T) {
	k := EncodeRIDSuffix([]byte("base"), 0xdeadbeefcafe)
	if want := []byte("base\x00\x00\xde\xad\xbe\xef\xca\xfe"); !bytes.Equal(k, want) {
		t.Fatalf("rid suffix = %x, want %x", k, want)
	}
}
