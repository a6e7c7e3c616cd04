package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/sqlfront"
)

func TestFrameRoundTrip(t *testing.T) {
	in := Frame{RequestID: 42, Op: OpExec, Payload: []byte("hello")}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.RequestID != in.RequestID || out.Op != in.Op || string(out.Payload) != "hello" {
		t.Fatalf("round trip: %+v", out)
	}
	// Empty payload.
	buf.Reset()
	WriteFrame(&buf, Frame{RequestID: 7, Op: OpPing})
	out, err = ReadFrame(&buf, true)
	if err != nil || out.Payload != nil || out.Op != OpPing {
		t.Fatalf("empty payload: %+v %v", out, err)
	}
}

func TestFrameViolations(t *testing.T) {
	mk := func(b []byte) io.Reader { return bytes.NewReader(b) }

	// Clean EOF before any bytes.
	if _, err := ReadFrame(mk(nil), true); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v", err)
	}
	// Torn length prefix.
	if _, err := ReadFrame(mk([]byte{0, 0}), true); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn length: %v", err)
	}
	// Torn header after a valid length.
	torn := binary.BigEndian.AppendUint32(nil, 9)
	torn = append(torn, 1, 2, 3)
	if _, err := ReadFrame(mk(torn), true); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn header: %v", err)
	}
	// Torn payload.
	full := AppendFrame(nil, Frame{RequestID: 1, Op: OpExec, Payload: []byte("payload")})
	if _, err := ReadFrame(mk(full[:len(full)-3]), true); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn payload: %v", err)
	}
	// Length below the fixed header: protocol violation.
	small := binary.BigEndian.AppendUint32(nil, 4)
	if _, err := ReadFrame(mk(append(small, 9, 9, 9, 9)), true); !errors.Is(err, ErrProtocol) {
		t.Fatalf("undersize: no protocol error")
	}
	// Oversize length: protocol violation before any allocation.
	big := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, err := ReadFrame(mk(big), true); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversize: no protocol error")
	}
	// Garbage (e.g. an HTTP request) parses as an absurd length or bad
	// opcode; either way it must be a protocol violation, not a panic.
	if _, err := ReadFrame(mk([]byte("GET / HTTP/1.1\r\n\r\n")), true); !errors.Is(err, ErrProtocol) {
		t.Fatalf("garbage: no protocol error")
	}
	// Unknown opcode.
	bad := AppendFrame(nil, Frame{RequestID: 1, Op: Op(99), Payload: nil})
	if _, err := ReadFrame(mk(bad), true); !errors.Is(err, ErrProtocol) {
		t.Fatalf("bad opcode: no protocol error")
	}
	// A request opcode is a violation on the client side, which expects
	// only responses.
	req := AppendFrame(nil, Frame{RequestID: 1, Op: OpExec})
	if _, err := ReadFrame(mk(req), false); !errors.Is(err, ErrProtocol) {
		t.Fatalf("request on response side: no protocol error")
	}
}

func TestExecPayloadRoundTrip(t *testing.T) {
	args := []core.Value{core.I(7), core.S("x"), core.Null, core.F(1.5), core.B([]byte{1, 2})}
	p := AppendExec(nil, "INSERT INTO t VALUES (?, ?, ?, ?, ?)", args)
	sql, got, err := DecodeExec(p)
	if err != nil {
		t.Fatal(err)
	}
	if sql != "INSERT INTO t VALUES (?, ?, ?, ?, ?)" || len(got) != len(args) {
		t.Fatalf("decode: %q %v", sql, got)
	}
	for i := range args {
		if !got[i].Equal(args[i]) {
			t.Fatalf("arg %d: %v != %v", i, got[i], args[i])
		}
	}
	if _, _, err := DecodeExec([]byte{250}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("corrupt exec payload: %v", err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &Result{
		Columns:  []string{"id", "name"},
		Rows:     []core.Row{{core.I(1), core.S("ada")}, {core.I(2), core.Null}},
		Affected: 3,
	}
	out, err := DecodeResult(AppendResult(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Affected != 3 || len(out.Columns) != 2 || len(out.Rows) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	if !out.Rows[0][1].Equal(core.S("ada")) || !out.Rows[1][1].IsNull() {
		t.Fatalf("rows: %+v", out.Rows)
	}
	// Empty result.
	out, err = DecodeResult(AppendResult(nil, &Result{}))
	if err != nil || len(out.Rows) != 0 || out.Affected != 0 {
		t.Fatalf("empty: %+v %v", out, err)
	}
	if _, err := DecodeResult([]byte{255}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("corrupt result: %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	p := AppendResponse(nil, CodeConflict, "boom", []byte("body"))
	c, msg, body, err := decodeResponse(p)
	if err != nil || c != CodeConflict || msg != "boom" || string(body) != "body" {
		t.Fatalf("response: %v %q %q %v", c, msg, body, err)
	}
	if _, _, _, err := decodeResponse([]byte{0}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("short response: %v", err)
	}
}

// TestErrorRoundTrip is the end-to-end error-mapping table: for every
// error shape a server can see, Classify must pick exactly one stable
// code, and the client-side rehydration must satisfy errors.Is against
// the same sentinel. Fatal codes win over retryable ones no matter how
// the error is wrapped.
func TestErrorRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		code      Code
		sentinel  error // what errors.Is must match client-side (nil = only *Error)
		retryable bool
	}{
		{"conflict", fmt.Errorf("x: %w", engineapi.ErrConflict), CodeConflict, engineapi.ErrConflict, true},
		{"duplicate", fmt.Errorf("x: %w", engineapi.ErrDuplicate), CodeDuplicate, engineapi.ErrDuplicate, false},
		{"not found", fmt.Errorf("x: %w", engineapi.ErrNotFound), CodeNotFound, engineapi.ErrNotFound, false},
		{"busy", fmt.Errorf("x: %w", ErrServerBusy), CodeBusy, ErrServerBusy, true},
		{"worker busy", fmt.Errorf("x: %w", core.ErrWorkerBusy), CodeBusy, ErrServerBusy, true},
		{"closed", fmt.Errorf("x: %w", core.ErrClosed), CodeClosed, core.ErrClosed, false},
		{"durability", fmt.Errorf("x: %w", core.ErrDurabilityLost), CodeDurabilityLost, core.ErrDurabilityLost, false},
		{"no txn", fmt.Errorf("x: %w", sqlfront.ErrNoTxn), CodeBadRequest, nil, false},
		{"cross engine", fmt.Errorf("x: %w", sqlfront.ErrCrossEngine), CodeBadRequest, nil, false},
		{"bad plan", fmt.Errorf("x: %w", sqlfront.ErrBadPlan), CodeBadRequest, nil, false},
		{"param count", fmt.Errorf("x: %w", sqlfront.ErrParamCount), CodeBadRequest, nil, false},
		{"bad statement", fmt.Errorf("%w: parse", ErrBadStatement), CodeBadRequest, nil, false},
		{"unclassified", errors.New("mystery"), CodeInternal, nil, false},

		// Precedence: fatal beats retryable regardless of wrap order. A
		// client must never be told to retry into a fail-stopped engine.
		{"durability wraps conflict",
			fmt.Errorf("%w: then %w", core.ErrDurabilityLost, engineapi.ErrConflict),
			CodeDurabilityLost, core.ErrDurabilityLost, false},
		{"conflict wraps durability",
			fmt.Errorf("%w: then %w", engineapi.ErrConflict, core.ErrDurabilityLost),
			CodeDurabilityLost, core.ErrDurabilityLost, false},
		{"closed wraps busy",
			fmt.Errorf("%w: then %w", ErrServerBusy, core.ErrClosed),
			CodeClosed, core.ErrClosed, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := Classify(tc.err)
			if code != tc.code {
				t.Fatalf("Classify(%v) = %v, want %v", tc.err, code, tc.code)
			}
			if retryable(code) != tc.retryable {
				t.Fatalf("retryable(%v) = %v, want %v", code, retryable(code), tc.retryable)
			}
			// Cross the wire: encode, decode, rehydrate.
			p := AppendResponse(nil, code, tc.err.Error(), nil)
			c2, msg, _, err := decodeResponse(p)
			if err != nil || c2 != code {
				t.Fatalf("wire round trip: %v %v", c2, err)
			}
			remote := FromCode(c2, msg)
			if tc.sentinel != nil && !errors.Is(remote, tc.sentinel) {
				t.Fatalf("client-side errors.Is(%v, %v) = false", remote, tc.sentinel)
			}
			var we *Error
			if !errors.As(remote, &we) || we.Code != code {
				t.Fatalf("rehydrated error lost its code: %v", remote)
			}
			if we.Retryable() != tc.retryable {
				t.Fatalf("rehydrated retryability mismatch")
			}
			// Exactly one stable code: re-classifying the rehydrated
			// error lands on the same code.
			if Classify(remote) != code {
				t.Fatalf("re-Classify(%v) = %v, want %v", remote, Classify(remote), code)
			}
		})
	}
	if FromCode(CodeOK, "") != nil {
		t.Fatal("FromCode(CodeOK) != nil")
	}
}

func TestClassifyNil(t *testing.T) {
	if Classify(nil) != CodeOK {
		t.Fatal("nil must classify OK")
	}
}

// decodeResponse splits an untraced response payload.
func decodeResponse(payload []byte) (Code, string, []byte, error) {
	r, err := DecodeResponseFrame(Frame{Op: OpResponse, Payload: payload})
	return r.Code, r.Msg, r.Body, err
}

// TestDeadlineArmsLazily: the armed deadline is never earlier than asked and
// at most a quarter of the budget later, and a steady stream of requests
// under one budget moves it once per quarter-budget, not once per request.
func TestDeadlineArmsLazily(t *testing.T) {
	var d Deadline
	var armed time.Time
	sets := 0
	set := func(t time.Time) error { armed = t; sets++; return nil }
	t0 := time.Unix(1000, 0)
	arm := func(at, budget time.Duration) {
		t.Helper()
		now := t0.Add(at)
		d.Arm(set, now, budget)
		if late := armed.Sub(now.Add(budget)); late < 0 || late > budget/4 {
			t.Fatalf("at %v, budget %v: armed %v off the asked deadline", at, budget, late)
		}
	}
	for s := 0; s <= 20; s++ { // a request a second, 40 s each: armed at 0 s and at 11 s
		arm(time.Duration(s)*time.Second, 40*time.Second)
	}
	if sets != 2 {
		t.Fatalf("21 requests under one budget moved the deadline %d times, want 2", sets)
	}
	arm(21*time.Second, 4*time.Second) // a tighter budget pulls it in
	arm(22*time.Second, 5*time.Minute) // a wider one pushes it out
	if sets != 4 {
		t.Fatalf("a changed budget did not move the deadline (%d sets)", sets)
	}
}
