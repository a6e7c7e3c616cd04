package server

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/wire"
)

// requests is the number of request frames the harness's server has admitted
// or refused so far, over every opcode.
func (h *harness) requests() int64 {
	var n int64
	for _, op := range wire.RequestOps() {
		n += h.reg.Counter("server.requests." + op.String()).Load()
	}
	return n
}

// TestPooledConnReapedIsDiscarded: nobody reads a connection while it sits in
// the client's pool, so one the server reaped or closed in the meantime is
// found out when it is leased (one non-blocking peek) and replaced, instead
// of failing the next caller -- who, with retries off, would see the reap
// notice as its own error.
func TestPooledConnReapedIsDiscarded(t *testing.T) {
	t.Run("idle reap", func(t *testing.T) {
		h := newHarness(t, func(c *Config) { c.IdleTimeout = 50 * time.Millisecond }, nil)
		cl := h.client(t, func(o *client.Options) { o.MaxRetries = -1 })
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(150 * time.Millisecond) // the pooled connection is reaped, notice and FIN unread
		if got := h.reg.Counter("server.idle_reaped").Load(); got != 1 {
			t.Fatalf("idle_reaped = %d, want the pooled connection", got)
		}
		for i := 0; i < 3; i++ {
			if err := cl.Ping(); err != nil {
				t.Fatalf("ping %d after the idle reap: %v", i, err)
			}
		}
		if got := h.reg.Counter("server.conns_total").Load(); got != 2 {
			t.Fatalf("%d connections, want the reaped one and one replacement", got)
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		cl := h.client(t, func(o *client.Options) { o.MaxRetries = -1 })
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
		if err := h.srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		// A second server takes over the address, as a restarted node would.
		srv, err := New(Config{Frontend: h.srv.cfg.Frontend, WorkerSlots: h.engine.Workers()})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		for i := 0; i < 3; i++ {
			if err := cl.Ping(); err != nil {
				t.Fatalf("ping %d after the server closed the pooled connection: %v", i, err)
			}
		}
	})
}

// TestTransactionRequestCount: BEGIN rides the first statement, so the
// benchmark's transaction -- BEGIN, two SELECTs, UPDATE, INSERT, COMMIT -- is
// five request frames, not six; an empty transaction is none at all.
func TestTransactionRequestCount(t *testing.T) {
	h := newHarness(t, nil, nil)
	s, err := h.client(t, nil).Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	txn, check := benchTxn(t, s)
	before := h.requests()
	for i := int64(0); i < 10; i++ {
		if err := txn(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.requests() - before; got != 50 {
		t.Fatalf("10 transactions took %d requests, want 5 each", got)
	}
	if got := h.reg.Counter("server.requests.begin").Load(); got != 0 {
		t.Fatalf("%d explicit begins", got)
	}
	check(10)

	before = h.requests()
	for _, end := range []func() error{s.Commit, s.Rollback} {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := end(); err != nil || s.InTxn() {
			t.Fatalf("ending an empty transaction: %v, InTxn %v", err, s.InTxn())
		}
	}
	if got := h.requests() - before; got != 0 {
		t.Fatalf("two empty transactions took %d requests, want none", got)
	}
}

// benchTxn prepares the benchmark's oltp transaction on s over a fresh
// two-row table: txn(i) runs it once (inserting key 100+i), check verifies
// what n committed runs left.
func benchTxn(t testing.TB, s *client.Session) (txn func(i int64) error, check func(n int64)) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Exec("CREATE TABLE b (id INT, k INT, c TEXT, PRIMARY KEY(id))")
	must(err)
	_, err = s.Exec("INSERT INTO b VALUES (1, 0, 'one')")
	must(err)
	_, err = s.Exec("INSERT INTO b VALUES (2, 0, 'two')")
	must(err)
	sel, err := s.Prepare("SELECT k, c FROM b WHERE id = ?")
	must(err)
	upd, err := s.Prepare("UPDATE b SET k = ?, c = ? WHERE id = ?")
	must(err)
	ins, err := s.Prepare("INSERT INTO b VALUES (?, ?, ?)")
	must(err)
	txn = func(i int64) error {
		if err := s.Begin(); err != nil {
			return err
		}
		for _, id := range []int64{1, 2} {
			if res, err := sel.Exec(core.I(id)); err != nil || len(res.Rows) != 1 {
				return errors.Join(err, errors.New("point select did not return its row"))
			}
		}
		if _, err := upd.Exec(core.I(i+1), core.S("upd"), core.I(1)); err != nil {
			return err
		}
		if _, err := ins.Exec(core.I(100+i), core.I(i), core.S("ins")); err != nil {
			return err
		}
		return s.Commit()
	}
	check = func(n int64) {
		t.Helper()
		res, err := s.Exec("SELECT k FROM b WHERE id = ?", core.I(1))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != n {
			t.Fatalf("row 1 after %d transactions: %+v, %v", n, res, err)
		}
		res, err = s.Exec("SELECT id FROM b WHERE id = ?", core.I(100+n-1))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("the last transaction's insert is missing: %+v, %v", res, err)
		}
	}
	return txn, check
}

// TestBeginFlagRawProtocol drives wire.FlagBegin on a raw connection: what
// the server refuses, and that a refusal or a failed statement leaves no
// transaction (and no leased slot) behind.
func TestBeginFlagRawProtocol(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.WorkerSlots = 1
		c.SlotWait = 20 * time.Millisecond
	}, nil)
	other := h.client(t, func(o *client.Options) { o.MaxRetries = -1 })
	if _, err := other.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if f, err := wire.ReadFrame(nc, false); err != nil || f.RequestID != 0 {
		t.Fatalf("greeting frame: id=%d err=%v", f.RequestID, err)
	}
	var reqID uint64
	roundTrip := func(op wire.Op, payload []byte) (wire.Code, string) {
		t.Helper()
		reqID++
		if err := wire.WriteFrame(nc, wire.Frame{RequestID: reqID, Op: op, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := wire.ReadFrame(nc, false)
		if err != nil {
			t.Fatal(err)
		}
		code, msg, _, err := decodeResponse(f)
		if err != nil || f.RequestID != reqID {
			t.Fatalf("response id %d to request %d: %v", f.RequestID, reqID, err)
		}
		return code, msg
	}
	exec := func(flags uint64, sql string, args ...core.Value) (wire.Code, string) {
		t.Helper()
		return roundTrip(wire.OpExec, wire.AppendStmtFlags(wire.AppendExec(nil, sql, args), flags))
	}
	// slotFree: the single worker slot is free exactly when no transaction is
	// open on the raw connection.
	slotFree := func() bool {
		t.Helper()
		_, err := other.Exec("SELECT id FROM t WHERE id = ?", core.I(0))
		if err != nil && wire.CodeOf(err) != wire.CodeBusy {
			t.Fatal(err)
		}
		return err == nil
	}

	// A flag bit this server does not know is refused, not ignored; the
	// connection stays in use.
	if code, msg := exec(wire.FlagBegin|1<<5, "INSERT INTO t VALUES (1)"); code != wire.CodeBadRequest || !strings.Contains(msg, "unknown statement flags") {
		t.Fatalf("unknown flag bit: %v %q", code, msg)
	}
	// Begin on a transaction verb.
	for _, verb := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if code, msg := exec(wire.FlagBegin, verb); code != wire.CodeBadRequest || !strings.Contains(msg, "transaction verb") {
			t.Fatalf("begin flag on %s: %v %q", verb, code, msg)
		}
	}
	// A carrier that fails -- unknown table, unknown statement id -- leaves
	// nothing open.
	if code, _ := exec(wire.FlagBegin, "INSERT INTO nosuch VALUES (1)"); code != wire.CodeBadRequest {
		t.Fatalf("begin-carrying statement on an unknown table: %v", code)
	}
	if code, _ := roundTrip(wire.OpExecStmt, wire.AppendStmtFlags(wire.AppendExecStmt(nil, 999, nil), wire.FlagBegin)); code != wire.CodeBadRequest {
		t.Fatalf("begin-carrying execution of an unknown statement: %v", code)
	}
	if !slotFree() {
		t.Fatal("a refused or failed begin-carrying statement left a transaction open")
	}
	if code, msg := roundTrip(wire.OpCommit, nil); code == wire.CodeOK {
		t.Fatalf("commit with no transaction open: %v %q", code, msg)
	}

	// The carrier succeeds: the transaction is open, a second begin flag is
	// refused without disturbing it, and the commit makes both rows visible.
	if code, msg := exec(wire.FlagBegin, "INSERT INTO t VALUES (?)", core.I(1)); code != wire.CodeOK {
		t.Fatalf("begin-carrying insert: %v %q", code, msg)
	}
	if slotFree() {
		t.Fatal("no transaction open after a begin-carrying statement")
	}
	if code, msg := exec(wire.FlagBegin, "INSERT INTO t VALUES (?)", core.I(2)); code != wire.CodeBadRequest || !strings.Contains(msg, "inside a transaction") {
		t.Fatalf("begin flag inside a transaction: %v %q", code, msg)
	}
	if code, msg := exec(0, "INSERT INTO t VALUES (?)", core.I(3)); code != wire.CodeOK {
		t.Fatalf("second statement of the transaction: %v %q", code, msg)
	}
	if code, msg := roundTrip(wire.OpCommit, nil); code != wire.CodeOK {
		t.Fatalf("commit: %v %q", code, msg)
	}
	for id, want := range map[int64]int{1: 1, 2: 0, 3: 1} {
		res, err := other.Exec("SELECT id FROM t WHERE id = ?", core.I(id))
		if err != nil || len(res.Rows) != want {
			t.Fatalf("row %d: %d rows, %v; want %d", id, len(res.Rows), err, want)
		}
	}

	// A duplicate aborts the transaction the carrier opened by itself; there
	// is nothing left to roll back and nothing left open.
	if code, _ := exec(wire.FlagBegin, "INSERT INTO t VALUES (?)", core.I(1)); code != wire.CodeDuplicate {
		t.Fatalf("begin-carrying duplicate insert: %v", code)
	}
	if !slotFree() {
		t.Fatal("a duplicate on the carrier left a transaction open")
	}
}

// TestBeginRidesFirstStatementEndToEnd is the client's view of the same,
// against the real server: where BEGIN's errors surface, what they leave of
// the transaction, and that the pipelined and streaming calls still find the
// transaction they expect.
func TestBeginRidesFirstStatementEndToEnd(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) { o.MaxRetries = -1 })
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	begins := h.reg.Counter("server.requests.begin")

	// bad_request on the carrier: no server transaction, the client's stays
	// open, and the next statement carries the BEGIN again -- so the row it
	// writes is the transaction's, gone with the rollback.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO nosuch VALUES (1)"); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("want bad_request, got %v", err)
	}
	if !s.InTxn() {
		t.Fatal("bad_request on the first statement ended the transaction")
	}
	if _, err := s.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Exec("SELECT id FROM t WHERE id = 1"); err != nil || len(res.Rows) != 0 {
		t.Fatalf("a row written after the failed carrier outlived the rollback: %+v, %v", res, err)
	}

	// Duplicate and conflict on the carrier end the transaction on both sides,
	// with the same identity as from any later statement.
	if _, err := s.Exec("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (2)"); !errors.Is(err, engineapi.ErrDuplicate) || s.InTxn() {
		t.Fatalf("duplicate on the carrier: %v, InTxn %v", err, s.InTxn())
	}
	holder, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Exec("DELETE FROM t WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("DELETE FROM t WHERE id = 2"); !errors.Is(err, engineapi.ErrConflict) || s.InTxn() {
		t.Fatalf("conflict on the carrier: %v, InTxn %v", err, s.InTxn())
	}
	if err := holder.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := begins.Load(); got != 0 {
		t.Fatalf("%d explicit begins so far, want none", got)
	}

	// The calls that cannot carry the flag send the BEGIN themselves and then
	// behave as they always did inside a transaction.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT id FROM t"); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("a cursor inside a transaction: %v", err)
	}
	if aff, err := s.ExecBatch([]wire.BatchStmt{{SQL: "INSERT INTO t VALUES (10)"}, {SQL: "INSERT INTO t VALUES (11)"}}); err != nil || len(aff) != 2 {
		t.Fatalf("batch inside the transaction: %v, %v", aff, err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Exec("SELECT id FROM t WHERE id = 10"); err != nil || len(res.Rows) != 0 {
		t.Fatalf("the batch ran outside the transaction: %+v, %v", res, err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if vote, err := s.TxnPrepare("h0.1.1"); err != nil || vote != wire.PreparedReadOnly || s.InTxn() {
		t.Fatalf("prepare of an empty transaction: vote %d, %v, InTxn %v", vote, err, s.InTxn())
	}
	if got := begins.Load(); got != 2 {
		t.Fatalf("%d explicit begins, want one for the cursor (the batch found it open) and one for the prepare", got)
	}
}

// TestTracedBytesIn: server.bytes_in counts a frame as it came off the
// socket, trace extension included.
func TestTracedBytesIn(t *testing.T) {
	h := newHarness(t, nil, nil)
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	bytesIn := h.reg.Counter("server.bytes_in")
	var wrote int64
	for i, f := range []wire.Frame{
		{RequestID: 1, Op: wire.OpPing},
		{RequestID: 2, Op: wire.OpPing, Traced: true, TraceID: 7, Hop: 300},
		{RequestID: 3, Op: wire.OpExec, Payload: wire.AppendExec(nil, "SELECT 1 FROM nosuch", nil), Traced: true, TraceID: 8},
	} {
		buf := wire.AppendFrame(nil, f)
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		wrote += int64(len(buf))
		for { // past the greeting, to this request's response
			r, err := wire.ReadFrame(nc, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.RequestID == f.RequestID {
				break
			}
		}
		if got := bytesIn.Load(); got != wrote {
			t.Fatalf("after frame %d: bytes_in %d, the client wrote %d", i, got, wrote)
		}
	}
}

// BenchmarkServiceRoundTrip is one pinned session against a loopback server,
// both ends in this process: a ping (the bare round trip) and the benchmark's
// oltp_wire transaction. With -cpuprofile / -memprofile it gives the profiles
// quoted in EXPERIMENTS.md "Five lean round trips".
func BenchmarkServiceRoundTrip(b *testing.B) {
	h := newHarness(b, nil, nil)
	s, err := h.client(b, nil).Session()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	txn, _ := benchTxn(b, s)
	var txns int64
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"ping", s.Ping},
		{"txn", func() error { txns++; return txn(txns) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
