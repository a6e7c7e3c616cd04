package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func TestValueIs32Bytes(t *testing.T) {
	if sz := reflect.TypeOf(Value{}).Size(); sz > 32 {
		t.Fatalf("Value is %d bytes, want <= 32", sz)
	}
}

func randomRow(rng *rand.Rand) Row {
	row := make(Row, rng.Intn(7))
	for i := range row {
		switch rng.Intn(5) {
		case 0:
			row[i] = Null
		case 1:
			row[i] = I(rng.Int63() - rng.Int63())
		case 2:
			row[i] = F(rng.NormFloat64())
		case 3:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			row[i] = S(string(b))
		default:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			row[i] = B(b)
		}
	}
	return row
}

// TestRowViewAgreesWithDecode checks every RowView operation against the
// decode-then-operate path it replaces.
func TestRowViewAgreesWithDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var v RowView
	for iter := 0; iter < 2000; iter++ {
		row := randomRow(rng)
		other := randomRow(rng)
		tail := []byte{0xAB, 0xCD}
		enc := append(EncodeRow(nil, row), tail...)
		rest, err := v.Reset(enc)
		if err != nil || !bytes.Equal(rest, tail) || v.NumCols() != len(row) {
			t.Fatalf("Reset(%v): cols %d rest %x err %v", row, v.NumCols(), rest, err)
		}
		// What Update relies on: a row encodes in place into the
		// encodedRowLen bytes reserved for it.
		room := make([]byte, encodedRowLen(row))
		if p := EncodeRow(room[:0], row); len(p) != len(room) || (len(p) > 0 && &p[0] != &room[0]) || !bytes.Equal(p, enc[:len(enc)-len(tail)]) {
			t.Fatalf("EncodeRow(%v) into encodedRowLen %d bytes = %x, EncodeRow(nil) gives %x", row, len(room), p, enc[:len(enc)-len(tail)])
		}
		cols := make([]int, rng.Intn(5))
		proj := make(Row, len(cols))
		for i := range cols {
			if len(row) == 0 {
				cols, proj = cols[:0], proj[:0]
				break
			}
			cols[i] = rng.Intn(len(row))
			proj[i] = row[cols[i]]
		}
		for i, val := range row {
			if !v.ColEqual(i, val) {
				t.Fatalf("col %d of %v: not equal to itself", i, row)
			}
			if i < len(other) && v.ColEqual(i, other[i]) != val.Equal(other[i]) {
				t.Fatalf("col %d: ColEqual(%v) disagrees with Equal on %v", i, other[i], val)
			}
		}
		if v.ColEqual(len(row), Null) {
			t.Fatal("a missing column equals NULL")
		}
		got, err := v.AppendProjection([]byte{9}, cols)
		if want := EncodeRow([]byte{9}, proj); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("projection %v of %v: got %x want %x (%v)", cols, row, got, want, err)
		}
		if all, _ := v.AppendProjection(nil, nil); !bytes.Equal(all, enc[:len(enc)-len(tail)]) {
			t.Fatalf("nil projection of %v: %x", row, all)
		}
		key, err := v.AppendKey([]byte{7}, cols)
		if want := EncodeKey([]byte{7}, proj...); err != nil || !bytes.Equal(key, want) {
			t.Fatalf("key %v of %v: got %x want %x (%v)", cols, row, key, want, err)
		}
		if _, err := v.AppendProjection(nil, []int{len(row)}); err == nil {
			t.Fatal("projection of a missing column accepted")
		}
		if _, err := v.AppendKey(nil, []int{len(row)}); err == nil {
			t.Fatal("key over a missing column accepted")
		}
	}
}

// TestRowViewAllocFree pins the primitive's point: walking, filtering,
// splicing and key-building an encoded row allocates nothing once the
// scratch has grown.
func TestRowViewAllocFree(t *testing.T) {
	enc := EncodeRow(nil, Row{I(7), I(42), F(1.5), S("some hundred bytes of text")})
	var v, v2 RowView
	dst := make([]byte, 0, 256)
	want := S("some hundred bytes of text")
	set := []ColValue{{Col: 1, Val: I(-1 << 40)}, {Col: 3, Val: S("other text")}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := v.Reset(enc); err != nil {
			t.Fatal(err)
		}
		if !v.ColEqual(3, want) {
			t.Fatal("ColEqual")
		}
		dst, _ = v.AppendProjection(dst[:0], []int{1, 3})
		dst, _ = v.AppendKey(dst[:0], []int{0, 3})
		n, _ := v.SplicedLen(set)
		if dst, _ = v.AppendSplice(dst[:0], set); len(dst) != n {
			t.Fatal("SplicedLen")
		}
		if _, err := v2.Reset(dst); err != nil || !v.sameCols(&v2, []int{0, 2}) || v.sameCols(&v2, []int{1}) {
			t.Fatal("sameCols")
		}
	})
	if allocs != 0 {
		t.Fatalf("RowView allocates %.1f times per row, want 0", allocs)
	}
}

// TestDecodeRowHostileCount is the DoS-amplification regression: a
// three-byte payload declaring 2^20 columns used to allocate and zero
// 64 MiB before reading a single column.
func TestDecodeRowHostileCount(t *testing.T) {
	hostile := []byte{0x80, 0x80, 0x40} // uvarint 1<<20, then nothing
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, _, err := DecodeRowPrefix(nil, hostile)
	_, _, rerr := DecodeRows(nil, hostile, 1)
	_, _, nerr := DecodeRows(nil, hostile, 1<<30)
	runtime.ReadMemStats(&ms1)
	if err == nil || rerr == nil || nerr == nil {
		t.Fatalf("hostile column count accepted: %v %v %v", err, rerr, nerr)
	}
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 1<<16 {
		t.Fatalf("rejecting a 3-byte payload allocated %d bytes", grew)
	}
}

// TestDecodeRowsArena checks the arena decoder: three allocations for any
// number of rows, values equal to the per-row decoder's, and nothing
// aliasing the input.
func TestDecodeRowsArena(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var rows []Row
	var data []byte
	for i := 0; i < 100; i++ {
		row := append(Row{I(int64(i)), S("text that makes the row a hundred bytes or so ........")}, randomRow(rng)...)
		rows = append(rows, row)
		data = EncodeRow(data, row)
	}
	data = append(data, 0xEE)
	got, rest, err := DecodeRows(nil, data, len(rows))
	if err != nil || len(rest) != 1 || len(got) != len(rows) {
		t.Fatalf("DecodeRows: %d rows, rest %x, err %v", len(got), rest, err)
	}
	for i := range data {
		data[i] = 0xFF // the caller's buffer is reused
	}
	for i, row := range rows {
		if len(got[i]) != len(row) {
			t.Fatalf("row %d arity %d want %d", i, len(got[i]), len(row))
		}
		for c := range row {
			same := row[c].Equal(got[i][c])
			if row[c].Kind() == KindFloat && math.IsNaN(row[c].Float()) {
				same = math.IsNaN(got[i][c].Float())
			}
			if !same {
				t.Fatalf("row %d col %d: got %v want %v", i, c, got[i][c], row[c])
			}
		}
		got[i] = append(got[i], Null) // must not run into the next row's values
	}
	if !got[1][0].Equal(I(1)) {
		t.Fatal("appending to one row overwrote the next")
	}
	data = data[:0]
	for _, row := range rows {
		data = EncodeRow(data, row)
	}
	if allocs := testing.AllocsPerRun(50, func() { DecodeRows(nil, data, len(rows)) }); allocs > 3 {
		t.Fatalf("DecodeRows of %d rows allocates %.1f times, want <= 3", len(rows), allocs)
	}
	if rows, rest, err := DecodeRows(nil, data, 0); rows != nil || err != nil || len(rest) != len(data) {
		t.Fatalf("DecodeRows(0): %v %v", rows, err)
	}
	if _, _, err := DecodeRows(nil, data, len(rows)+1); err == nil {
		t.Fatal("more rows than the data holds accepted")
	}
}

// TestDecodeRowsIntoRowArena: a kept decode into a RowArena reuses its row
// headers and Value arena -- a warmed decode allocates nothing, its values
// aliasing the bytes -- while a Value taken out of an earlier decode keeps
// its bytes; arrays above maxRowScratch are not kept.
func TestDecodeRowsIntoRowArena(t *testing.T) {
	encode := func(rows ...Row) []byte {
		var b []byte
		for _, r := range rows {
			b = EncodeRow(b, r)
		}
		return b
	}
	var a RowArena
	first, _, err := DecodeKeptRows(&a, encode(Row{I(1), S("one")}, Row{I(2), S("two")}), 2)
	if err != nil {
		t.Fatal(err)
	}
	kept := first[1][1]
	second, _, err := DecodeKeptRows(&a, encode(Row{I(3), S("three")}), 1)
	if err != nil || len(second) != 1 || second[0][1].Str() != "three" {
		t.Fatalf("second decode: %v, %v", second, err)
	}
	if &second[0][0] != &first[0][0] {
		t.Fatal("the second decode did not reuse the first's arrays")
	}
	if kept.Str() != "two" {
		t.Fatalf("a Value taken from the first decode reads %q after the second", kept.Str())
	}
	if a.vals[3] != (Value{}) || first[1] != nil {
		t.Fatal("the arena still references the first decode's second row")
	}

	ints, text := encode(Row{I(7), I(8), I(9)}), encode(Row{I(7), S("seven")})
	for _, c := range []struct {
		name string
		data []byte
		want float64
	}{{"ints", ints, 0}, {"text", text, 0}} {
		if got := testing.AllocsPerRun(100, func() { DecodeKeptRows(&a, c.data, 1) }); got != c.want {
			t.Errorf("a warmed decode of a row of %s allocates %.1f times, want %.0f", c.name, got, c.want)
		}
	}

	var wide []Row
	for i := 0; i < 2000; i++ { // 2000 * (24 + 2*32) bytes of arrays
		wide = append(wide, Row{I(int64(i)), I(-1)})
	}
	if _, _, err := DecodeKeptRows(&a, encode(wide...), len(wide)); err != nil {
		t.Fatal(err)
	}
	if a.rows != nil || a.vals != nil {
		t.Fatalf("a %d-row result left the arena holding %d rows and %d values", len(wide), cap(a.rows), cap(a.vals))
	}
}

// TestAppendRowMatchesDecodeRow: AppendRow decodes every kind, NULL and the
// empty string included, as DecodeRow does, whole or projected, over a Value
// arena that grows under rows already appended; its TEXT aliases the row's
// bytes; a column the row lacks is refused and appends nothing; and Rows
// starts the next result over the same arrays, clearing what the last one
// held beyond the new one.
func TestAppendRowMatchesDecodeRow(t *testing.T) {
	rows := []Row{
		{I(-5), F(2.5), S("text"), B([]byte{0, 1}), Null, S("")},
		{I(1 << 40), F(-1), S(strings.Repeat("y", 300)), B(nil), I(0), S("z")},
	}
	var a RowArena
	var v RowView
	for n := 0; n < 20; n++ { // 20 rows of 6 values: the arena grows several times
		p := EncodeRow(nil, rows[n%2])
		if _, err := v.Reset(p); err != nil {
			t.Fatal(err)
		}
		if err := a.AppendRow(&v, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := a.Rows()
	if len(got) != 20 {
		t.Fatalf("%d rows", len(got))
	}
	for i, r := range got {
		want, _ := DecodeRow(EncodeRow(nil, rows[i%2]))
		if fmt.Sprint(r) != fmt.Sprint(want) {
			t.Fatalf("row %d: %v, want %v", i, r, want)
		}
	}

	p := EncodeRow(nil, rows[0])
	if _, err := v.Reset(p); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendRow(&v, []int{2, 0}); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendRow(&v, []int{1, 6}); err != ErrRowCorrupt {
		t.Fatalf("a projection past the row's columns: %v", err)
	}
	one := a.Rows()
	if len(one) != 1 || len(one[0]) != 2 || one[0][0].Str() != "text" || one[0][1].Int() != -5 {
		t.Fatalf("projected row: %v", one)
	}
	if unsafe.StringData(one[0][0].Str()) != &p[1+2+9+2] { // header, the int, the float, kind and length
		t.Fatal("the TEXT value does not alias the row's bytes")
	}
	if a.vals[:cap(a.vals)][2] != (Value{}) || a.rows[:cap(a.rows)][1] != nil {
		t.Fatal("the arena still references the earlier result")
	}
	if a.Rows() != nil {
		t.Fatal("an empty result is not nil")
	}
}

// TestDecodeRowsIntoRowSlab: results decoded into a RowSlab never share an
// array or a byte with one another or with the encoding they came from --
// scribbling over the encoding and decoding more leaves every earlier row
// as it was -- successive small results share a chunk, and one over a
// quarter of a chunk gets arrays of its own.
func TestDecodeRowsIntoRowSlab(t *testing.T) {
	var s RowSlab
	var kept []Row
	var want []string
	data := make([]byte, 0, 256)
	for i := 0; i < 3*slabRows; i++ { // runs through three row chunks
		data = EncodeRow(data[:0], Row{I(int64(i)), S(fmt.Sprintf("row-%d", i))})
		rows, _, err := DecodeRows(&s, data, 1)
		if err != nil {
			t.Fatal(err)
		}
		kept, want = append(kept, rows[0]), append(want, fmt.Sprint(rows[0]))
		for j := range data {
			data[j] = 0xAA
		}
	}
	for i, row := range kept {
		if got := fmt.Sprint(row); got != want[i] || cap(row) != 2 {
			t.Fatalf("row %d reads %s (cap %d), decoded as %s", i, got, cap(row), want[i])
		}
	}
	if uintptr(unsafe.Pointer(&kept[1][0])) != uintptr(unsafe.Pointer(&kept[0][1]))+unsafe.Sizeof(Value{}) {
		t.Fatal("two small results did not share a chunk")
	}
	var wide []Row
	for i := 0; i < slabRows; i++ {
		wide = append(wide, Row{I(int64(i))})
	}
	var enc []byte
	for _, r := range wide {
		enc = EncodeRow(enc, r)
	}
	before := cap(s.rows) - len(s.rows)
	rows, _, err := DecodeRows(&s, enc, len(wide))
	if err != nil || len(rows) != len(wide) || cap(s.rows)-len(s.rows) != before {
		t.Fatalf("a result over a quarter chunk: %d rows, %v, chunk room %d -> %d", len(rows), err, before, cap(s.rows)-len(s.rows))
	}
}
