package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hiengine/internal/obs"
)

func TestTracedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := Frame{
		RequestID: 77,
		Op:        OpCommit,
		Payload:   []byte("body"),
		Traced:    true,
		TraceID:   0xdeadbeefcafe,
		Hop:       300, // forces a multi-byte hop uvarint
	}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bytes.NewReader(buf.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Traced || got.TraceID != f.TraceID || got.Hop != 300 || got.Op != OpCommit ||
		got.RequestID != 77 || string(got.Payload) != "body" {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// The streaming reader agrees.
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()), true)
	got2, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Traced || got2.TraceID != f.TraceID || got2.Hop != 300 || string(got2.Payload) != "body" {
		t.Fatalf("FrameReader mismatch: %+v", got2)
	}
	// What the frame occupied on the wire counts the trace extension the
	// reader stripped from Payload.
	if fr.WireLen() != buf.Len() || fr.WireLen() != 4+9+8+2+len("body") {
		t.Fatalf("WireLen = %d, frame is %d bytes", fr.WireLen(), buf.Len())
	}
}

func TestTracedFrameGoldenLayout(t *testing.T) {
	// The traced-frame extension is frozen: traceID (8 bytes BE) then the
	// hop id as a uvarint, between the header and the payload, with the
	// trace flag on the opcode and the extension counted in length.
	f := Frame{
		RequestID: 7,
		Op:        OpCommit,
		Payload:   []byte{0xAA},
		Traced:    true,
		TraceID:   0x0102030405060708,
		Hop:       5,
	}
	got := AppendFrame(nil, f)
	want := []byte{
		0, 0, 0, 19, // length: 9 header + 8 trace id + 1 hop + 1 payload
		0, 0, 0, 0, 0, 0, 0, 7, // request id
		byte(OpCommit) | byte(TraceFlag), // opcode with trace flag
		1, 2, 3, 4, 5, 6, 7, 8,           // trace id
		5,    // hop uvarint
		0xAA, // payload
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("traced encoding changed:\n got % x\nwant % x", got, want)
	}
}

func TestUntracedFrameBytesUnchanged(t *testing.T) {
	// An untraced frame must be byte-identical to the pre-trace encoding:
	// untraced requests pay zero extra bytes.
	f := Frame{RequestID: 5, Op: OpPing}
	buf := AppendFrame(nil, f)
	want := []byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 5, byte(OpPing)}
	if !bytes.Equal(buf, want) {
		t.Fatalf("untraced encoding changed: % x, want % x", buf, want)
	}
}

func TestTracedFrameTooShort(t *testing.T) {
	// A traced frame whose payload cannot hold the trace id is a protocol
	// violation, not a panic.
	raw := []byte{0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 1, byte(OpPing | TraceFlag), 1, 2, 3, 4}
	_, err := ReadFrame(bytes.NewReader(raw), true)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	fr := NewFrameReader(bytes.NewReader(raw), true)
	if _, err := fr.Read(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("FrameReader err = %v, want ErrProtocol", err)
	}
}

func TestTraceBlockRoundTrip(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	tr := tracer.Start(99, true)
	tr.Begin(obs.StageFrameRead)
	time.Sleep(100 * time.Microsecond)
	tr.End(obs.StageFrameRead)
	tr.Begin(obs.StageExec)
	tr.End(obs.StageExec)
	tr.AddSpan(obs.StageSRSSReplicate, 500, 1000)
	tr.SetBatch(3)
	tr.PlanCache(true)
	tr.PlanCache(false)

	tr.SetHop(4)
	tr.SetShard(2)

	body := []byte("result")
	frameBuf := AppendResponseFrame(nil, 11, tr, CodeOK, "", body)
	tr.Discard()

	f, err := ReadFrame(bytes.NewReader(frameBuf), false)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Traced || f.TraceID != 99 || f.Op != OpResponse {
		t.Fatalf("frame: %+v", f)
	}
	if f.Hop != 4 {
		t.Fatalf("traced response hop = %d, want the unit's hop 4", f.Hop)
	}
	ti, rest, err := DecodeTraceBlock(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Batch != 3 || !ti.PlanHit || !ti.PlanMiss || ti.TotalNS <= 0 {
		t.Fatalf("trace info: %+v", ti)
	}
	if !ti.HasShard || ti.Shard != 2 {
		t.Fatalf("shard tag: %+v", ti)
	}
	wantStages := []obs.Stage{obs.StageFrameRead, obs.StageExec, obs.StageSRSSReplicate}
	if len(ti.Stages) != len(wantStages) {
		t.Fatalf("stages: %+v", ti.Stages)
	}
	for i, st := range ti.Stages {
		if st.Stage != wantStages[i] {
			t.Fatalf("stage[%d] = %v, want %v", i, st.Stage, wantStages[i])
		}
	}
	if ti.Stages[0].DurNS < int64(100*time.Microsecond) {
		t.Fatalf("frame_read dur = %d, want >= 100µs", ti.Stages[0].DurNS)
	}
	if ti.Stages[2].BeginNS != 500 || ti.Stages[2].DurNS != 1000 {
		t.Fatalf("replicate span: %+v", ti.Stages[2])
	}
	c, msg, gotBody, err := decodeResponse(rest)
	if err != nil || c != CodeOK || msg != "" || string(gotBody) != "result" {
		t.Fatalf("response after trace block: %v %v %q %v", c, msg, gotBody, err)
	}
}

func TestTraceBlockNilTrace(t *testing.T) {
	buf := AppendTraceBlock(nil, nil)
	ti, rest, err := DecodeTraceBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ti.Stages) != 0 || ti.TotalNS != 0 || ti.Batch != 0 || len(rest) != 0 {
		t.Fatalf("nil trace block: %+v rest=%d", ti, len(rest))
	}
	if ti.HasShard {
		t.Fatalf("nil trace block carries a shard tag: %+v", ti)
	}
}

func TestTraceBlockCorrupt(t *testing.T) {
	cases := [][]byte{
		{},           // missing count
		{200},        // count > NumStages (uvarint 200 fits one byte)
		{1},          // stage byte missing
		{1, 0},       // begin missing
		{1, 0, 0},    // dur missing
		{0},          // total missing
		{0, 0},       // batch missing
		{0, 0, 0},    // flags missing
		{0, 0, 0, 0}, // shard tag missing
	}
	for i, c := range cases {
		if _, _, err := DecodeTraceBlock(c); !errors.Is(err, ErrProtocol) {
			t.Fatalf("case %d: err = %v, want ErrProtocol", i, err)
		}
	}
}
