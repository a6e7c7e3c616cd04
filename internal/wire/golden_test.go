package wire

import "testing"

// These tables freeze the wire protocol's numeric assignments. Opcodes and
// status codes are wire-stable by contract (mixed-version clusters, shard
// routing, replica log shipping all speak across binaries), so any change
// here that is not a pure append is a protocol break. A failing case in
// this file means a constant was renumbered: fix the constant, never the
// table.

var goldenOps = []struct {
	op   Op
	id   uint8
	name string
	// request: a client may put this opcode on the wire (validRequest).
	request bool
}{
	{OpPing, 1, "ping", true},
	{OpExec, 2, "exec", true},
	{OpBegin, 3, "begin", true},
	{OpCommit, 4, "commit", true},
	{OpAbort, 5, "abort", true},
	{OpStats, 6, "stats", true},
	{OpResponse, 7, "response", false}, // server -> client only
	{OpPrepare, 8, "prepare", true},
	{OpExecStmt, 9, "exec_stmt", true},
	{OpCloseStmt, 10, "close_stmt", true},
	{OpExecAt, 11, "exec_at", true},
	{OpReplHello, 12, "repl_hello", true},
	{OpReplList, 13, "repl_list", true},
	{OpReplFetch, 14, "repl_fetch", true},
	{OpShardMap, 15, "shard_map", true},
	{OpTxnPrepare, 16, "txn_prepare", true},
	{OpTxnDecide, 17, "txn_decide", true},
	{OpTxnStatus, 18, "txn_status", true},
	{OpTxnRecover, 19, "txn_recover", true},
	{OpTxnForget, 20, "txn_forget", true},
	{OpScanOpen, 21, "scan_open", true},
	{OpScanNext, 22, "scan_next", true},
	{OpScanClose, 23, "scan_close", true},
	{OpExecBatch, 24, "exec_batch", true},
}

var goldenCodes = []struct {
	code      Code
	id        uint16
	name      string
	retryable bool
	fatal     bool
}{
	{CodeOK, 0, "ok", false, false},
	{CodeConflict, 1, "conflict", true, false},
	{CodeDuplicate, 2, "duplicate", false, false},
	{CodeNotFound, 3, "not_found", false, false},
	{CodeBusy, 4, "busy", true, false},
	{CodeBadRequest, 5, "bad_request", false, false},
	{CodeClosed, 6, "closed", false, true},
	{CodeDurabilityLost, 7, "durability_lost", false, true},
	{CodeInternal, 8, "internal", false, false},
	{CodeReadOnly, 9, "read_only", false, false},
	{CodeStaleEpoch, 10, "stale_epoch", false, false},
	{CodeInDoubt, 11, "in_doubt", false, false},
	{CodeWrongShard, 12, "wrong_shard", false, false},
	// cursor_gone is neither retryable (the pinned snapshot is unrecoverable
	// and rows may already have been consumed) nor fatal (the connection and
	// server are fine; only the one scan must be reissued).
	{CodeCursorGone, 13, "cursor_gone", false, false},
}

func TestGoldenOpcodes(t *testing.T) {
	if got, want := len(goldenOps), int(MaxOp); got != want {
		t.Fatalf("golden table has %d opcodes, MaxOp is %d: new opcodes must be appended here", got, want)
	}
	seen := make(map[uint8]bool)
	for _, g := range goldenOps {
		if uint8(g.op) != g.id {
			t.Errorf("opcode %s renumbered: is %d, frozen at %d", g.name, uint8(g.op), g.id)
		}
		if got := g.op.String(); got != g.name {
			t.Errorf("opcode %d: String() = %q, frozen name %q", g.id, got, g.name)
		}
		if got := validRequest(g.op); got != g.request {
			t.Errorf("opcode %s: validRequest = %v, want %v", g.name, got, g.request)
		}
		if seen[g.id] {
			t.Errorf("opcode id %d assigned twice", g.id)
		}
		seen[g.id] = true
	}
	// Opcode 0 is the zero value and must stay unassigned: a zeroed frame
	// header is never a valid request.
	if validRequest(Op(0)) {
		t.Error("opcode 0 must not be a valid request")
	}
	if MaxOp != OpExecBatch {
		t.Errorf("MaxOp = %d, want OpExecBatch (%d)", MaxOp, OpExecBatch)
	}
}

func TestGoldenCodes(t *testing.T) {
	if got, want := len(goldenCodes), int(MaxCode)+1; got != want {
		t.Fatalf("golden table has %d codes, MaxCode is %d: new codes must be appended here", got, int(MaxCode))
	}
	seen := make(map[uint16]bool)
	for _, g := range goldenCodes {
		if uint16(g.code) != g.id {
			t.Errorf("code %s renumbered: is %d, frozen at %d", g.name, uint16(g.code), g.id)
		}
		if got := g.code.String(); got != g.name {
			t.Errorf("code %d: String() = %q, frozen name %q", g.id, got, g.name)
		}
		if got := retryable(g.code); got != g.retryable {
			t.Errorf("code %s: Retryable = %v, want %v", g.name, got, g.retryable)
		}
		if got := Fatal(g.code); got != g.fatal {
			t.Errorf("code %s: Fatal = %v, want %v", g.name, got, g.fatal)
		}
		if seen[g.id] {
			t.Errorf("code id %d assigned twice", g.id)
		}
		seen[g.id] = true
	}
	if MaxCode != CodeCursorGone {
		t.Errorf("MaxCode = %d, want CodeCursorGone (%d)", MaxCode, CodeCursorGone)
	}
}
