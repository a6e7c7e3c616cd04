package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"hiengine/internal/core"
)

// TestPreparedCodecs round-trips the prepared-statement payloads.
func TestPreparedCodecs(t *testing.T) {
	sql := "SELECT v FROM t WHERE id = ?"
	got, err := DecodePrepare(EncodePrepare(sql))
	if err != nil || got != sql {
		t.Fatalf("prepare round trip: %q %v", got, err)
	}
	if _, err := DecodePrepare(append(EncodePrepare(sql), 0xff)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("trailing bytes must be corrupt, got %v", err)
	}

	id, n, err := DecodePrepareResult(EncodePrepareResult(42, 3))
	if err != nil || id != 42 || n != 3 {
		t.Fatalf("prepare result round trip: %d %d %v", id, n, err)
	}
	if _, _, err := DecodePrepareResult(nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("empty prepare result must be corrupt, got %v", err)
	}

	args := []core.Value{core.I(7), core.S("x")}
	gid, gargs, err := DecodeExecStmt(AppendExecStmt(nil, 9, args))
	if err != nil || gid != 9 || len(gargs) != 2 || !gargs[0].Equal(args[0]) || !gargs[1].Equal(args[1]) {
		t.Fatalf("exec stmt round trip: %d %+v %v", gid, gargs, err)
	}
	if _, _, err := DecodeExecStmt([]byte{0x80}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated exec stmt must be corrupt, got %v", err)
	}

	cid, err := DecodeHandle(EncodeHandle(13))
	if err != nil || cid != 13 {
		t.Fatalf("close stmt round trip: %d %v", cid, err)
	}
	if _, err := DecodeHandle(append(EncodeHandle(13), 1)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("close stmt trailing bytes must be corrupt, got %v", err)
	}
}

// TestPreparedOpcodesValid checks the new opcodes pass request-side frame
// validation and OpResponse still does not.
func TestPreparedOpcodesValid(t *testing.T) {
	for _, op := range []Op{OpPrepare, OpExecStmt, OpCloseStmt} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{RequestID: 1, Op: op, Payload: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(&buf, true)
		if err != nil {
			t.Fatalf("%v rejected on the request side: %v", op, err)
		}
		if f.Op != op {
			t.Fatalf("opcode mangled: %v -> %v", op, f.Op)
		}
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{RequestID: 1, Op: OpPrepare}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, false); !errors.Is(err, ErrProtocol) {
		t.Fatalf("request opcode on the response side must be a violation, got %v", err)
	}
}

// TestFrameReaderReuse checks that FrameReader preserves ReadFrame's
// contract while reusing its payload buffer across frames.
func TestFrameReaderReuse(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{RequestID: 1, Op: OpExec, Payload: bytes.Repeat([]byte{0xaa}, 100)},
		{RequestID: 2, Op: OpPing},
		{RequestID: 3, Op: OpExecStmt, Payload: bytes.Repeat([]byte{0xbb}, 5000)},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf, true)
	starts := 0
	fr.OnFrameStart = func() { starts++ }
	for i, want := range frames {
		got, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.RequestID != want.RequestID || got.Op != want.Op || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: %+v", i, got)
		}
	}
	if starts != len(frames) {
		t.Fatalf("OnFrameStart fired %d times, want %d", starts, len(frames))
	}
	if _, err := fr.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF, got %v", err)
	}

	// Violations surface identically to ReadFrame.
	fr = NewFrameReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), true)
	if _, err := fr.Read(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversize length must be a violation, got %v", err)
	}
	fr = NewFrameReader(bytes.NewReader([]byte{0, 0}), true)
	if _, err := fr.Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn length must be unexpected EOF, got %v", err)
	}
}

// TestFrameReaderShrinksAfterOversize checks one huge frame does not pin
// its high-water buffer forever.
func TestFrameReaderShrinksAfterOversize(t *testing.T) {
	var buf bytes.Buffer
	big := Frame{RequestID: 1, Op: OpExec, Payload: make([]byte, 1<<20)}
	small := Frame{RequestID: 2, Op: OpExec, Payload: []byte{1, 2, 3}}
	WriteFrame(&buf, big)
	WriteFrame(&buf, small)
	fr := NewFrameReader(&buf, true)
	if _, err := fr.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Read(); err != nil {
		t.Fatal(err)
	}
	if cap(fr.buf) > maxRetainedBuf {
		t.Fatalf("reader retained %d-byte buffer after oversize frame (bound %d)", cap(fr.buf), maxRetainedBuf)
	}
}

// TestAppendResponseFrame checks the single-pass frame builder agrees with
// the compositional encoders byte for byte.
func TestAppendResponseFrame(t *testing.T) {
	body := AppendResult(nil, &Result{Affected: 2, Columns: []string{"a"}, Rows: []core.Row{{core.I(1)}}})
	want := AppendFrame(nil, Frame{RequestID: 77, Op: OpResponse, Payload: AppendResponse(nil, CodeConflict, "boom", body)})
	got := AppendResponseFrame(nil, 77, nil, CodeConflict, "boom", body)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendResponseFrame diverges from AppendFrame+AppendResponse:\n%x\n%x", got, want)
	}
}

// nullWriter consumes bytes without retaining them.
type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestFrameRoundTripAllocs is the allocation regression: the steady-state
// frame path (pooled write, reusable-buffer read) must not allocate per
// frame. A tiny epsilon absorbs one-time pool warmup.
func TestFrameRoundTripAllocs(t *testing.T) {
	payload := AppendExec(nil, "INSERT INTO t VALUES (?, ?)", []core.Value{core.I(1), core.S("v")})
	var stream bytes.Buffer
	f := Frame{RequestID: 1, Op: OpExec, Payload: payload}
	fr := NewFrameReader(&stream, true)
	// Warm up pool and reader buffer.
	for i := 0; i < 4; i++ {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Read(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.1 {
		t.Fatalf("frame round trip allocates %.2f allocs/op, want ~0", avg)
	}
}

// BenchmarkFrameRoundTrip measures the pooled frame path; run with
// -benchmem to see the allocs/op figure the regression test asserts.
func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := AppendExec(nil, "INSERT INTO t VALUES (?, ?)", []core.Value{core.I(1), core.S("v")})
	var stream bytes.Buffer
	f := Frame{RequestID: 1, Op: OpExec, Payload: payload}
	fr := NewFrameReader(&stream, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RequestID = uint64(i)
		if err := WriteFrame(&stream, f); err != nil {
			b.Fatal(err)
		}
		if _, err := fr.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameWriteOnly isolates the send path (frame assembly into a
// pooled buffer + write).
func BenchmarkFrameWriteOnly(b *testing.B) {
	payload := AppendExec(nil, "SELECT v FROM t WHERE id = ?", []core.Value{core.I(42)})
	f := Frame{RequestID: 7, Op: OpExec, Payload: payload}
	var w nullWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(w, f); err != nil {
			b.Fatal(err)
		}
	}
}
