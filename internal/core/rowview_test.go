package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
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
	_, _, rerr := DecodeRows(hostile, 1)
	_, _, nerr := DecodeRows(hostile, 1<<30)
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
	got, rest, err := DecodeRows(data, len(rows))
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
	if allocs := testing.AllocsPerRun(50, func() { DecodeRows(data, len(rows)) }); allocs > 3 {
		t.Fatalf("DecodeRows of %d rows allocates %.1f times, want <= 3", len(rows), allocs)
	}
	if rows, rest, err := DecodeRows(data, 0); rows != nil || err != nil || len(rest) != len(data) {
		t.Fatalf("DecodeRows(0): %v %v", rows, err)
	}
	if _, _, err := DecodeRows(data, len(rows)+1); err == nil {
		t.Fatal("more rows than the data holds accepted")
	}
}
