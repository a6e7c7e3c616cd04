package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"hiengine/internal/core"
)

// scanResult is a 100-row, ~11 KB result shaped like the benchmark's
// scan_wire responses.
func scanResult() *Result {
	res := &Result{Columns: []string{"id", "c"}}
	for i := int64(0); i < 100; i++ {
		res.Rows = append(res.Rows, core.Row{core.I(i), core.S(fmt.Sprintf("%0100d", i))})
	}
	return res
}

func checkScanResult(t *testing.T, got *Result) {
	t.Helper()
	want := scanResult()
	if len(got.Rows) != len(want.Rows) || len(got.Columns) != 2 || got.Columns[0] != "id" || got.Columns[1] != "c" {
		t.Fatalf("result shape: %d rows, columns %v", len(got.Rows), got.Columns)
	}
	for i, row := range want.Rows {
		if len(got.Rows[i]) != 2 || !got.Rows[i][0].Equal(row[0]) || !got.Rows[i][1].Equal(row[1]) {
			t.Fatalf("row %d: got %v want %v", i, got.Rows[i], row)
		}
	}
}

// TestDecodeResultAllocs is the result-decoding allocation regression: a
// whole result is one Value arena plus one copy of the row bytes, not
// three allocations per row.
func TestDecodeResultAllocs(t *testing.T) {
	body := AppendResult(nil, scanResult())
	avg := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResult(body); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Fatalf("decoding a 100-row result allocates %.1f times, want <= 8", avg)
	}
	page := AppendCursorPage(nil, 7, true, []string{"id", "c"}, 100, body[len(body)-len(encodeRows(scanResult().Rows)):])
	avg = testing.AllocsPerRun(100, func() {
		if _, _, _, err := DecodeCursorPage(page); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Fatalf("decoding a 100-row cursor page allocates %.1f times, want <= 8", avg)
	}
}

func encodeRows(rows []core.Row) []byte {
	var b []byte
	for _, r := range rows {
		b = core.EncodeRow(b, r)
	}
	return b
}

// TestEncodedResultMatchesAppendResult pins the one encoding path: a result
// whose rows arrive pre-encoded is byte-identical to one encoded from
// Values, with and without the CSN suffix, and a cursor page is the same
// body behind its id and done flag.
func TestEncodedResultMatchesAppendResult(t *testing.T) {
	res := scanResult()
	res.Affected = 3
	rowData := encodeRows(res.Rows)
	if got, want := appendEncodedResult(nil, 3, res.Columns, len(res.Rows), rowData), AppendResult(nil, res); !bytes.Equal(got, want) {
		t.Fatal("AppendEncodedResult differs from AppendResult")
	}
	if got, want := AppendEncodedResultCSN(nil, 3, res.Columns, len(res.Rows), rowData, 300), append(AppendResult(nil, res), 0xAC, 0x02); !bytes.Equal(got, want) {
		t.Fatal("AppendEncodedResultCSN is not AppendResult plus the CSN uvarint")
	}
	if got, want := AppendEncodedResultCSN(nil, 0, nil, 0, nil, 5), append(AppendResult(nil, &Result{}), 5); !bytes.Equal(got, want) {
		t.Fatal("empty commit body changed")
	}
	res.Affected = 0
	page := AppendCursorPage(nil, 5, false, res.Columns, len(res.Rows), rowData)
	if want := append([]byte{5, 0}, AppendResult(nil, res)...); !bytes.Equal(page, want) {
		t.Fatal("cursor page is not id, done, Result")
	}
}

// TestDecodedResultDoesNotAliasFrameBuffer is the aliasing contract on the
// client side: rows decoded out of a FrameReader's payload survive the
// reader reusing (here: scribbling over) its buffer for the next frame.
func TestDecodedResultDoesNotAliasFrameBuffer(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(AppendResponseFrame(nil, 1, nil, CodeOK, "", AppendResult(nil, scanResult())))
	stream.Write(AppendResponseFrame(nil, 2, nil, CodeOK, "", bytes.Repeat([]byte{0xFF}, 12<<10)))
	fr := NewFrameReader(&stream, false)
	f, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	_, _, body, err := decodeResponse(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Payload {
		f.Payload[i] = 0xAA
	}
	if _, err := fr.Read(); err != nil { // the next frame lands in the same buffer
		t.Fatal(err)
	}
	checkScanResult(t, got)
}

// TestDecodeResultHostileCounts: counts in a result header are bounded by
// the bytes that follow them before they size anything.
func TestDecodeResultHostileCounts(t *testing.T) {
	for _, body := range [][]byte{
		{0, 0, 0xFF, 0xFF, 0xFF, 0x07},       // 2^24-1 rows, no row bytes
		{0, 0xFF, 0xFF, 0x03},                // 2^16-1 columns, no names
		{0, 0, 1, 0x80, 0x80, 0x40},          // one row declaring 2^20 columns
		{0, 0, 2, 1, byte(core.KindInt), 2},  // second row missing
		{0, 0, 1, 1, byte(core.KindString)},  // string without a length
		{0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, // column name longer than the body
	} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		_, err := DecodeResult(body)
		runtime.ReadMemStats(&ms1)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("body %x: err %v, want a protocol error", body, err)
		}
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 1<<16 {
			t.Fatalf("body %x: rejecting it allocated %d bytes", body, grew)
		}
	}
}

// TestResultColumnsReuse: a result whose column names equal the slice the
// caller passes takes that slice instead of allocating one; one whose names
// differ gets a fresh slice, and the caller's -- which earlier results share
// -- is left as it was.
func TestResultColumnsReuse(t *testing.T) {
	prev := []string{"id", "c"}
	body := AppendEncodedResultCSN(nil, 0, []string{"id", "c"}, 0, nil, 7)
	res, csn, err := DecodeResultCSN(body, prev)
	if err != nil || csn != 7 || &res.Columns[0] != &prev[0] {
		t.Fatalf("same names: columns %v (shared %v), csn %d, err %v", res.Columns, err == nil && &res.Columns[0] == &prev[0], csn, err)
	}
	if got := testing.AllocsPerRun(100, func() { DecodeResultCSN(body, prev) }); got != 1 {
		t.Fatalf("decoding a row-less result with the previous columns allocates %.0f times, want 1 (the Result)", got)
	}
	for _, cols := range [][]string{{"id", "k"}, {"id"}, {"id", "c", "x"}, nil} {
		res, _, err := DecodeResultCSN(AppendEncodedResultCSN(nil, 0, cols, 0, nil, 0), prev)
		if err != nil || len(res.Columns) != len(cols) || (len(cols) > 0 && &res.Columns[0] == &prev[0]) {
			t.Fatalf("names %v: got %v, err %v", cols, res.Columns, err)
		}
		for i := range cols {
			if res.Columns[i] != cols[i] {
				t.Fatalf("names %v: got %v", cols, res.Columns)
			}
		}
		if prev[0] != "id" || prev[1] != "c" {
			t.Fatalf("names %v overwrote the previous slice: %v", cols, prev)
		}
	}
	if _, _, err := DecodeResultCSN([]byte{0, 2, 2, 'i', 'd', 9}, prev); !errors.Is(err, ErrPayloadCorrupt) {
		t.Fatalf("name cut short: err %v", err)
	}
}

// TestResultCSNAgreesWithDecode: reading only a result's CSN accepts and
// rejects exactly what decoding the whole result does, agrees on the CSN,
// and allocates nothing.
func TestResultCSNAgreesWithDecode(t *testing.T) {
	full := AppendEncodedResultCSN(nil, 2, []string{"id", "c"}, 100, encodeRows(scanResult().Rows), 300)
	for n := 0; n <= len(full); n++ {
		body := full[:n]
		_, want, werr := DecodeResultCSN(body, nil)
		got, gerr := ResultCSN(body)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Fatalf("first %d bytes: ResultCSN = %d, %v; DecodeResultCSN = %d, %v", n, got, gerr, want, werr)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { ResultCSN(full) }); avg != 0 {
		t.Fatalf("ResultCSN allocates %.1f times", avg)
	}
}

// goldenRows turns the frozen opcode and status-code tables into encoded
// rows of every column kind: the fuzz corpus seeds.
func goldenRows() [][]byte {
	var out [][]byte
	for _, g := range goldenOps {
		out = append(out, core.EncodeRow(nil, core.Row{
			core.I(int64(g.id)), core.S(g.name), core.Null, core.F(float64(g.id) / 3), core.B([]byte(g.name)),
		}))
	}
	for _, g := range goldenCodes {
		out = append(out, core.EncodeRow(nil, core.Row{core.S(g.name), core.I(-int64(g.id)), core.F(math.Inf(1))}))
	}
	return append(out,
		core.EncodeRow(nil, core.Row{}),
		[]byte{0x80, 0x80, 0x40},                           // 2^20 columns declared, none present
		[]byte{1, byte(core.KindString), 0xFF, 0xFF, 0x7F}, // string longer than the row
	)
}

// FuzzRowWalk: on arbitrary bytes the allocation-free walker never panics,
// accepts and rejects exactly what DecodeRowPrefix does, agrees with it on
// every column, and neither of them allocates more than a small multiple
// of the input's length.
func FuzzRowWalk(f *testing.F) {
	for _, seed := range goldenRows() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v core.RowView
		rest, verr := v.Reset(data)
		row, drest, derr := core.DecodeRowPrefix(nil, data)
		// A column is at least one byte and costs a 32-byte Value, an
		// 8-byte offset and its share of the copied bytes. TotalAlloc is
		// process-wide and the fuzzing engine allocates alongside, so the
		// bound must be broken three times running to count.
		grew := uint64(math.MaxUint64)
		for try := 0; try < 3 && grew > uint64(64*len(data)+4096); try++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var v2 core.RowView
			v2.Reset(data)
			core.DecodeRowPrefix(nil, data)
			runtime.ReadMemStats(&ms1)
			grew = min(grew, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if grew > uint64(64*len(data)+4096) {
			t.Fatalf("%d input bytes allocated %d", len(data), grew)
		}
		if (verr == nil) != (derr == nil) {
			t.Fatalf("walker err %v, decoder err %v", verr, derr)
		}
		if verr != nil {
			return
		}
		if !bytes.Equal(rest, drest) || v.NumCols() != len(row) {
			t.Fatalf("walker: %d cols rest %x; decoder: %d cols rest %x", v.NumCols(), rest, len(row), drest)
		}
		cols := make([]int, len(row))
		for i, val := range row {
			cols[i] = i
			if nan := val.Kind() == core.KindFloat && math.IsNaN(val.Float()); !nan && !v.ColEqual(i, val) {
				t.Fatalf("col %d: walker disagrees with decoded %v", i, val)
			}
		}
		key, err := v.AppendKey(nil, cols)
		if err != nil || !bytes.Equal(key, core.EncodeKey(nil, row...)) {
			t.Fatalf("key from payload %x != key from values (%v)", key, err)
		}
	})
}

// FuzzSpliceProjection: for a valid row and any projection, splicing the
// columns' bytes equals decoding, projecting and re-encoding -- byte for
// byte when the row is in EncodeRow's own (canonical) form, which every
// stored row is, and value for value otherwise (a hand-made row may spell a
// varint with redundant bytes; the splice keeps them, a re-encode would not).
func FuzzSpliceProjection(f *testing.F) {
	for i, seed := range goldenRows() {
		f.Add(seed, []byte{byte(i), 0, byte(i >> 1), 3})
	}
	f.Fuzz(func(t *testing.T, data, pick []byte) {
		row, rest, err := core.DecodeRowPrefix(nil, data)
		if err != nil {
			return
		}
		var v core.RowView
		if _, err := v.Reset(data); err != nil {
			t.Fatalf("decoder accepted what the walker rejects: %v", err)
		}
		// An empty pick is SELECT *: a nil projection, every column.
		var cols []int
		proj := row
		if len(pick) > 0 {
			cols, proj = []int{}, core.Row{}
			for _, p := range pick {
				if len(row) > 0 {
					cols = append(cols, int(p)%len(row))
					proj = append(proj, row[int(p)%len(row)])
				}
			}
		}
		got, err := v.AppendProjection(nil, cols)
		if err != nil {
			t.Fatalf("projection %v: %v", cols, err)
		}
		canonical := bytes.Equal(core.EncodeRow(nil, row), data[:len(data)-len(rest)])
		if want := core.EncodeRow(nil, proj); canonical && !bytes.Equal(got, want) {
			t.Fatalf("projection %v: spliced %x, re-encoded %x", cols, got, want)
		}
		back, err := core.DecodeRow(got)
		if err != nil || len(back) != len(proj) {
			t.Fatalf("projection %v: spliced row decodes to %v (%v), want %v", cols, back, err, proj)
		}
		for i := range proj {
			if nan := proj[i].Kind() == core.KindFloat && math.IsNaN(proj[i].Float()); !nan && !back[i].Equal(proj[i]) {
				t.Fatalf("projection %v col %d: %v, want %v", cols, i, back[i], proj[i])
			}
		}
	})
}

// FuzzSpliceUpdate: the point UPDATE's new payload. For a stored row and any
// assignments, splicing the set columns into the encoded row equals
// decoding it, assigning, and re-encoding -- byte for byte when the row is
// in EncodeRow's own form, value for value otherwise -- the two reject the
// same malformed rows, and the splice has exactly the length it announced.
func FuzzSpliceUpdate(f *testing.F) {
	for i, seed := range goldenRows() {
		f.Add(seed, []byte{byte(i), 0, byte(i >> 1), 3}, int64(i)-3, fmt.Sprint("v", i))
	}
	f.Fuzz(func(t *testing.T, data, pick []byte, num int64, str string) {
		var v core.RowView
		rest, verr := v.Reset(data)
		row, _, derr := core.DecodeRowPrefix(nil, data)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("walker err %v, decoder err %v", verr, derr)
		}
		if verr != nil {
			return
		}
		// Each pick byte assigns one column a value of a kind it selects;
		// a column may be assigned twice (the last assignment wins).
		values := []core.Value{core.I(num), core.S(str), core.Null, core.F(float64(num) / 7), core.B([]byte(str)), core.I(-num)}
		var set []core.ColValue
		want := append(core.Row{}, row...)
		for i, p := range pick {
			if len(row) == 0 {
				break
			}
			cv := core.ColValue{Col: int(p) % len(row), Val: values[(int(p)/len(row)+i)%len(values)]}
			set = append(set, cv)
			want[cv.Col] = cv.Val
		}
		n, err := v.SplicedLen(set)
		if err != nil {
			t.Fatalf("assignments %v: %v", set, err)
		}
		got, err := v.AppendSplice(nil, set)
		if err != nil || len(got) != n {
			t.Fatalf("assignments %v: spliced %d bytes (%v), announced %d", set, len(got), err, n)
		}
		canonical := bytes.Equal(core.EncodeRow(nil, row), data[:len(data)-len(rest)])
		if enc := core.EncodeRow(nil, want); canonical && !bytes.Equal(got, enc) {
			t.Fatalf("assignments %v: spliced %x, re-encoded %x", set, got, enc)
		}
		back, err := core.DecodeRow(got)
		if err != nil || len(back) != len(want) {
			t.Fatalf("assignments %v: spliced row decodes to %v (%v), want %v", set, back, err, want)
		}
		for i := range want {
			if nan := want[i].Kind() == core.KindFloat && math.IsNaN(want[i].Float()); !nan && !back[i].Equal(want[i]) {
				t.Fatalf("assignments %v col %d: %v, want %v", set, i, back[i], want[i])
			}
		}
		// A column the row does not have is refused, not spliced.
		bad := []core.ColValue{{Col: len(row), Val: core.I(1)}}
		if _, err := v.SplicedLen(bad); err == nil {
			t.Fatal("SplicedLen accepted a column past the row's end")
		}
		if _, err := v.AppendSplice(nil, bad); err == nil {
			t.Fatal("AppendSplice accepted a column past the row's end")
		}
	})
}
