package wire

import (
	"encoding/hex"
	"math"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// requestDecoders is the server-side decoder of every request opcode's
// payload (nil: the opcode carries none), each reporting how many elements
// it materialised. The server's handlers call exactly these.
var requestDecoders = map[Op]func(p []byte) (int, error){
	OpPing:   nil,
	OpBegin:  nil,
	OpCommit: nil,
	OpAbort:  nil,
	OpStats:  nil,
	OpExec: func(p []byte) (int, error) {
		_, args, _, err := DecodeExecFlags(p, nil)
		return len(args), err
	},
	OpPrepare:   func(p []byte) (int, error) { _, err := DecodePrepare(p); return 0, err },
	OpExecStmt:  func(p []byte) (int, error) { _, args, _, err := DecodeExecStmtFlags(p, nil); return len(args), err },
	OpCloseStmt: func(p []byte) (int, error) { _, err := DecodeHandle(p); return 0, err },
	OpExecAt: func(p []byte) (int, error) {
		_, exec, err := DecodeExecAt(p)
		if err != nil {
			return 0, err
		}
		_, args, _, err := DecodeExecFlags(exec, nil)
		return len(args), err
	},
	OpReplHello:  func(p []byte) (int, error) { _, err := DecodeReplHelloReq(p); return 0, err },
	OpReplList:   nil,
	OpReplFetch:  func(p []byte) (int, error) { _, _, _, _, err := DecodeReplFetch(p); return 0, err },
	OpShardMap:   func(p []byte) (int, error) { _, _, err := DecodeShardMapReq(p); return 0, err },
	OpTxnPrepare: func(p []byte) (int, error) { _, err := DecodeGTID(p); return 0, err },
	OpTxnDecide:  func(p []byte) (int, error) { _, _, err := DecodeTxnDecide(p); return 0, err },
	OpTxnStatus:  func(p []byte) (int, error) { _, err := DecodeGTID(p); return 0, err },
	OpTxnRecover: nil,
	OpTxnForget:  func(p []byte) (int, error) { _, err := DecodeGTID(p); return 0, err },
	OpScanOpen: func(p []byte) (int, error) {
		_, _, args, err := DecodeScanOpen(p)
		return len(args), err
	},
	OpScanNext:  func(p []byte) (int, error) { _, _, err := DecodeScanNext(p); return 0, err },
	OpScanClose: func(p []byte) (int, error) { _, err := DecodeHandle(p); return 0, err },
	OpExecBatch: func(p []byte) (int, error) {
		stmts, err := DecodeExecBatch(p)
		n := len(stmts)
		for _, st := range stmts {
			n += len(st.Args)
		}
		return n, err
	},
}

// goldenRetry freezes each request opcode's client retry class: moving an
// opcode to a laxer class can replay a request that already took effect.
var goldenRetry = map[Op]RetryClass{
	OpPing: RetryNever, OpExec: RetryOutsideTxn, OpBegin: RetryAlways, OpCommit: RetryNever,
	OpAbort: RetryNever, OpStats: RetryNever, OpPrepare: RetryAlways, OpExecStmt: RetryOutsideTxn,
	OpCloseStmt: RetryNever, OpExecAt: RetryNever, OpReplHello: RetryNever, OpReplList: RetryNever,
	OpReplFetch: RetryNever, OpShardMap: RetryNever, OpTxnPrepare: RetryNever, OpTxnDecide: RetryNever,
	OpTxnStatus: RetryNever, OpTxnRecover: RetryNever, OpTxnForget: RetryNever, OpScanOpen: RetryAlways,
	OpScanNext: RetryBusyOnly, OpScanClose: RetryNever, OpExecBatch: RetryOutsideTxn,
}

// TestRequestOpcodesComplete: a request opcode is a row of the opcode table
// plus a payload decoder and a retry class (plus a server handler, checked
// in internal/server); none of the three may be forgotten.
func TestRequestOpcodesComplete(t *testing.T) {
	ops := RequestOps()
	if len(ops) != len(requestDecoders) || len(ops) != len(goldenRetry) {
		t.Fatalf("%d request opcodes, %d decoders, %d retry classes", len(ops), len(requestDecoders), len(goldenRetry))
	}
	for _, op := range ops {
		if _, ok := requestDecoders[op]; !ok {
			t.Errorf("request opcode %s has no payload decoder", op)
		}
		want, ok := goldenRetry[op]
		if !ok {
			t.Errorf("request opcode %s has no frozen retry class", op)
		} else if got := op.Retry(); got != want {
			t.Errorf("opcode %s: retry class %d, frozen at %d", op, got, want)
		}
	}
	if OpResponse.Retry() != RetryNever || Op(200).Retry() != RetryNever {
		t.Error("only request opcodes may be retried")
	}
}

func TestRetryClasses(t *testing.T) {
	for _, c := range []struct {
		class RetryClass
		code  Code
		inTxn bool
		want  bool
	}{
		{RetryNever, CodeBusy, false, false},
		{RetryNever, CodeConflict, false, false},
		{RetryAlways, CodeBusy, true, true},
		{RetryAlways, CodeConflict, true, true},
		{RetryAlways, CodeBadRequest, false, false},
		{RetryAlways, CodeClosed, false, false},
		{RetryAlways, CodeOK, false, false},
		{RetryOutsideTxn, CodeConflict, false, true},
		{RetryOutsideTxn, CodeBusy, false, true},
		{RetryOutsideTxn, CodeConflict, true, false},
		{RetryOutsideTxn, CodeBusy, true, false},
		{RetryOutsideTxn, CodeDurabilityLost, false, false},
		{RetryBusyOnly, CodeBusy, true, true},
		{RetryBusyOnly, CodeBusy, false, true},
		{RetryBusyOnly, CodeConflict, false, false},
		{RetryBusyOnly, CodeCursorGone, false, false},
	} {
		if got := c.class.Allows(c.code, c.inTxn); got != c.want {
			t.Errorf("class %d, %s, inTxn=%v: Allows = %v, want %v", c.class, c.code, c.inTxn, got, c.want)
		}
	}
}

// FuzzRequestPayload drives every server-side payload decoder with whatever
// a peer could put after the opcode byte: an error or a value, never a
// panic, and nothing sized from a count the bytes present do not back.
func FuzzRequestPayload(f *testing.F) {
	for _, g := range goldenPayloads {
		if g.op != OpResponse {
			b, _ := hex.DecodeString(g.hex)
			f.Add(uint8(g.op), b)
		}
	}
	f.Fuzz(func(t *testing.T, op uint8, payload []byte) {
		dec := requestDecoders[Op(op)]
		if dec == nil {
			return
		}
		n, err := dec(payload)
		if err == nil && n > len(payload) {
			t.Fatalf("%s: %d elements out of %d bytes", Op(op), n, len(payload))
		}
		// An element is at least one byte and costs at most a 40-byte
		// BatchStmt or a 32-byte Value plus its share of the copied bytes.
		// TotalAlloc is process-wide and the fuzzing engine allocates
		// alongside, so the bound must be broken three times running.
		bound := uint64(64*len(payload) + 4096)
		grew := uint64(math.MaxUint64)
		for try := 0; try < 3 && grew > bound; try++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			dec(payload)
			runtime.ReadMemStats(&ms1)
			grew = min(grew, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if grew > bound {
			t.Fatalf("%s: %d payload bytes allocated %d", Op(op), len(payload), grew)
		}
	})
}

// TestDesignTables: DESIGN.md's opcode and status-code tables are written
// from the two tables in tables.go; every opcode and every code, by number
// and name, has a row in its table there.
func TestDesignTables(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	// A table is its header row (whose second column names it) and the rows
	// that follow, "| number | `name` | ...".
	row := regexp.MustCompile("^\\| *(\\d+) *\\| *`([a-z_]+)` *\\|")
	head := regexp.MustCompile("^\\| *# *\\| *([a-z]+) *\\|")
	tables := make(map[string]map[string]string) // table -> number -> name
	var cur map[string]string
	for _, line := range strings.Split(string(doc), "\n") {
		if m := head.FindStringSubmatch(line); m != nil {
			cur = make(map[string]string)
			tables[m[1]] = cur
		} else if m := row.FindStringSubmatch(line); m != nil && cur != nil {
			cur[m[1]] = m[2]
		} else if !strings.HasPrefix(line, "|") {
			cur = nil
		}
	}
	for _, g := range goldenOps {
		if got := tables["opcode"][strconv.Itoa(int(g.id))]; got != g.name {
			t.Errorf("DESIGN.md opcode table: row %d is %q, want %q", g.id, got, g.name)
		}
	}
	for _, g := range goldenCodes[1:] { // ok is not an error code
		if got := tables["code"][strconv.Itoa(int(g.id))]; got != g.name {
			t.Errorf("DESIGN.md code table: row %d is %q, want %q", g.id, got, g.name)
		}
	}
}
