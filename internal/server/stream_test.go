package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/wire"
)

// TestStreamingOversizeScan is the acceptance path for the cursor
// protocol: a SELECT whose result is well beyond 8x wire.MaxPayload --
// which the one-shot path must keep rejecting -- streams to completion
// through client.Rows in bounded pages.
func TestStreamingOversizeScan(t *testing.T) {
	h := newHarness(t, nil, nil)
	// Encoding (and then refusing) the ~132 MiB one-shot result takes the
	// server well past the default request timeout under -race.
	cl := h.client(t, func(o *client.Options) { o.RequestTimeout = 2 * time.Minute })

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE big (id INT, v TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// ~132 MiB of result: >= 8x the 16 MiB frame cap.
	const rows, width, batch = 33000, 4096, 500
	wide := strings.Repeat("x", width)
	for base := 0; base < rows; base += batch {
		stmts := make([]wire.BatchStmt, batch)
		for i := range stmts {
			stmts[i] = wire.BatchStmt{SQL: "INSERT INTO big VALUES (?, ?)",
				Args: []core.Value{core.I(int64(base + i)), core.S(wide)}}
		}
		aff, err := cl.ExecBatch(stmts)
		if err != nil {
			t.Fatalf("batch at %d: %v", base, err)
		}
		if len(aff) != batch {
			t.Fatalf("batch at %d: %d affected entries", base, len(aff))
		}
	}

	// The one-shot path still rejects the oversize result (last-resort
	// guard unchanged)...
	s, err = cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Exec("SELECT * FROM big")
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("one-shot oversize: want CodeBadRequest, got %v", err)
	}
	s.Close()

	// ...while the same statement streams to completion through Rows.
	rs, err := cl.Query("SELECT * FROM big")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var n int
	var sum int64
	for rs.Next() {
		row := rs.Row()
		sum += row[0].Int()
		if len(row[1].Str()) != width {
			t.Fatalf("row %d: value width %d", n, len(row[1].Str()))
		}
		n++
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("streamed %d rows, want %d", n, rows)
	}
	if want := int64(rows) * (rows - 1) / 2; sum != want {
		t.Fatalf("key sum %d, want %d (rows lost or duplicated)", sum, want)
	}
}

// TestStreamSnapshotUnderWriters: rows committed after the cursor opened
// -- inserts and updates alike -- must be invisible to the pinned
// snapshot, however slowly the client drains.
func TestStreamSnapshotUnderWriters(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) { o.FetchSize = 50 })

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE snap (id INT, v TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	const before = 1000
	stmts := make([]wire.BatchStmt, before)
	for i := range stmts {
		stmts[i] = wire.BatchStmt{SQL: "INSERT INTO snap VALUES (?, 'old')",
			Args: []core.Value{core.I(int64(i))}}
	}
	if _, err := cl.ExecBatch(stmts); err != nil {
		t.Fatal(err)
	}

	rs, err := cl.Query("SELECT * FROM snap")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	// With the cursor open (first page already delivered), rewrite the
	// world: double the rows, update every old one.
	w, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < before; i += 100 {
		if _, err := w.Exec("UPDATE snap SET v = 'new' WHERE id = ?", core.I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	more := make([]wire.BatchStmt, before)
	for i := range more {
		more[i] = wire.BatchStmt{SQL: "INSERT INTO snap VALUES (?, 'late')",
			Args: []core.Value{core.I(int64(before + i))}}
	}
	if _, err := cl.ExecBatch(more); err != nil {
		t.Fatal(err)
	}
	w.Close()

	n := 0
	for rs.Next() {
		if v := rs.Row()[1].Str(); v != "old" {
			t.Fatalf("snapshot leaked post-open write: %q", v)
		}
		n++
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if n != before {
		t.Fatalf("snapshot saw %d rows, want %d", n, before)
	}
}

// rawRequest round-trips one hand-built frame on a raw connection.
func rawRequest(t *testing.T, nc net.Conn, id uint64, op wire.Op, payload []byte) (wire.Code, string, []byte) {
	t.Helper()
	buf := wire.AppendFrame(nil, wire.Frame{RequestID: id, Op: op, Payload: payload})
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, err := wire.ReadFrame(nc, false)
		if err != nil {
			t.Fatal(err)
		}
		code, msg, body, err := decodeResponse(f)
		if err != nil {
			t.Fatal(err)
		}
		if f.RequestID == 0 && code == wire.CodeOK {
			continue // the connection greeting
		}
		if f.RequestID != id {
			t.Fatalf("response for request %d, want %d", f.RequestID, id)
		}
		return code, msg, body
	}
}

// TestCursorGoneAndIdempotentClose exercises the cursor table's edge
// semantics at the wire level: unknown ids answer CodeCursorGone on
// ScanNext but succeed on ScanClose (idempotent), and a drained cursor is
// auto-closed server-side.
func TestCursorGoneAndIdempotentClose(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, nil)
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE cg (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO cg VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// ScanNext on a cursor that never existed.
	code, msg, _ := rawRequest(t, nc, 1, wire.OpScanNext, wire.EncodeScanNext(42, 10))
	if code != wire.CodeCursorGone {
		t.Fatalf("unknown cursor: code %v (%s), want cursor_gone", code, msg)
	}
	// ScanClose on the same unknown id succeeds: close is idempotent.
	if code, msg, _ = rawRequest(t, nc, 2, wire.OpScanClose, wire.EncodeHandle(42)); code != wire.CodeOK {
		t.Fatalf("idempotent close: code %v (%s)", code, msg)
	}
	// A drained cursor auto-closes: the done page's id is already gone.
	code, msg, body := rawRequest(t, nc, 3, wire.OpScanOpen, wire.AppendScanOpen(nil, 10, "SELECT * FROM cg", nil))
	if code != wire.CodeOK {
		t.Fatalf("scan open: code %v (%s)", code, msg)
	}
	id, done, res, err := wire.DecodeCursorPage(body)
	if err != nil || !done || len(res.Rows) != 1 {
		t.Fatalf("first page: id=%d done=%v rows=%d err=%v", id, done, len(res.Rows), err)
	}
	if code, msg, _ = rawRequest(t, nc, 4, wire.OpScanNext, wire.EncodeScanNext(id, 10)); code != wire.CodeCursorGone {
		t.Fatalf("next after done: code %v (%s), want cursor_gone", code, msg)
	}
	// The connection survived every refusal above.
	if code, _, _ = rawRequest(t, nc, 5, wire.OpPing, nil); code != wire.CodeOK {
		t.Fatalf("connection dead after cursor errors: %v", code)
	}
}

// TestCursorRefusals covers the bounded cursor table and the in-txn
// refusal, and that Rows recovers the session for further use.
func TestCursorRefusals(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MaxCursors = 2 }, nil)
	cl := h.client(t, func(o *client.Options) {
		o.FetchSize = 5
		o.MaxRetries = -1
	})

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE cr (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Exec("INSERT INTO cr VALUES (?)", core.I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	// Fill the cursor table (pages of 5 over 100 rows: neither exhausts).
	r1, err := s.Query("SELECT * FROM cr")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Query("SELECT * FROM cr")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Query("SELECT * FROM cr")
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest || !strings.Contains(we.Msg, "cursor table full") {
		t.Fatalf("cursor table overflow: %v", err)
	}
	// Closing one frees a seat.
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Query("SELECT * FROM cr")
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	r3.Close()
	r2.Close()

	// No streaming inside an explicit transaction.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	_, err = s.Query("SELECT * FROM cr")
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("query inside txn: %v", err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Only SELECT streams.
	_, err = s.Query("INSERT INTO cr VALUES (999)")
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("non-select query: %v", err)
	}
	// The session still serves ordinary statements.
	res, err := s.Exec("SELECT * FROM cr WHERE id = 7")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("session after refusals: %v %v", res, err)
	}
}

// TestExecBatchSemantics: per-statement affected vector, atomicity of the
// auto-batch, transaction-verb refusal, and batches inside an explicit
// transaction following its fate.
func TestExecBatchSemantics(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, nil)

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE b (id INT, v TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}

	count := func() int {
		t.Helper()
		res, err := s.Exec("SELECT * FROM b")
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}

	// Mixed batch: inserts, an update, a no-op update.
	aff, err := s.ExecBatch([]wire.BatchStmt{
		{SQL: "INSERT INTO b VALUES (1, 'a')"},
		{SQL: "INSERT INTO b VALUES (?, ?)", Args: []core.Value{core.I(2), core.S("b")}},
		{SQL: "UPDATE b SET v = 'a2' WHERE id = 1"},
		{SQL: "UPDATE b SET v = 'x' WHERE id = 99"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1, 0}; fmt.Sprint(aff) != fmt.Sprint(want) {
		t.Fatalf("affected = %v, want %v", aff, want)
	}
	if count() != 2 {
		t.Fatalf("rows after batch: %d", count())
	}

	// Atomicity: statement 1 duplicates; statement 0's insert must not
	// survive.
	_, err = s.ExecBatch([]wire.BatchStmt{
		{SQL: "INSERT INTO b VALUES (3, 'c')"},
		{SQL: "INSERT INTO b VALUES (1, 'dup')"},
	})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeDuplicate {
		t.Fatalf("duplicate in batch: %v", err)
	}
	if !strings.Contains(we.Msg, "batch statement 1") {
		t.Fatalf("error does not name the failing statement: %q", we.Msg)
	}
	if count() != 2 {
		t.Fatalf("failed batch leaked rows: %d", count())
	}

	// Transaction verbs are refused wholesale.
	_, err = s.ExecBatch([]wire.BatchStmt{
		{SQL: "INSERT INTO b VALUES (4, 'd')"},
		{SQL: "COMMIT"},
	})
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("txn verb in batch: %v", err)
	}
	if count() != 2 {
		t.Fatalf("refused batch leaked rows: %d", count())
	}

	// Inside an explicit transaction the batch follows the transaction's
	// fate: rollback discards it...
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecBatch([]wire.BatchStmt{{SQL: "INSERT INTO b VALUES (5, 'e')"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if count() != 2 {
		t.Fatalf("rolled-back batch leaked rows: %d", count())
	}
	// ...commit keeps it.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecBatch([]wire.BatchStmt{{SQL: "INSERT INTO b VALUES (5, 'e')"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if count() != 3 {
		t.Fatalf("committed batch lost: %d", count())
	}
}

// TestDrainWithOpenCursor: a graceful shutdown must not hang on an open
// cursor (it is not an in-flight request between pages), and teardown
// must reap it -- snapshot and worker slot released.
func TestDrainWithOpenCursor(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) { o.FetchSize = 10 })

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE dr (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Exec("INSERT INTO dr VALUES (?)", core.I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	rs, err := cl.Query("SELECT * FROM dr")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if !rs.Next() {
		t.Fatalf("first row: %v", rs.Err())
	}
	if got := h.reg.Gauge("server.cursors_open").Load(); got != 1 {
		t.Fatalf("cursors_open = %d with a cursor open", got)
	}

	start := time.Now()
	if err := h.srv.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("drain took %v with an idle open cursor", d)
	}
	// Teardown reaped the cursor with the connection.
	if got := h.reg.Gauge("server.cursors_open").Load(); got != 0 {
		t.Fatalf("cursors_open = %d after shutdown", got)
	}
	// The client sees the cursor die with the connection, not a hang.
	for rs.Next() {
	}
	if rs.Err() == nil {
		t.Fatal("stream survived server shutdown")
	}
}

// TestSessionCloseReleasesUndrainedCursor: a session closed while one of its
// Rows is still open hands its connection back to the pool, and the
// connection is the server-side session, so the cursor -- a worker slot and
// a pinned snapshot -- has to be closed first. Without that, every lessee of
// the pooled connection leaks one more until the cursor table is full.
func TestSessionCloseReleasesUndrainedCursor(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) { o.PoolSize = 1 })
	if _, err := cl.Exec("CREATE TABLE uc (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := cl.Exec("INSERT INTO uc VALUES (?)", core.I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// More lessees than Config.MaxCursors (4): the fifth used to be refused.
	for i := 0; i < 6; i++ {
		s, err := cl.Session()
		if err != nil {
			t.Fatal(err)
		}
		s.SetFetchSize(2)
		rows, err := s.Query("SELECT * FROM uc")
		if err != nil {
			t.Fatalf("lessee %d: %v", i, err)
		}
		if !rows.Next() {
			t.Fatalf("lessee %d: no first row: %v", i, rows.Err())
		}
		s.Close() // rows neither drained nor closed
		if rows.Next() || !errors.Is(rows.Err(), client.ErrClientClosed) {
			t.Fatalf("lessee %d: Rows outlived its session (err %v)", i, rows.Err())
		}
		if n := h.srv.CursorsOpen(); n != 0 {
			t.Fatalf("lessee %d: %d cursors open after Session.Close", i, n)
		}
	}
	// The one connection was pooled every time, not discarded.
	if n := h.reg.Counter("server.conns_total").Load(); n != 1 {
		t.Fatalf("server.conns_total = %d, want the one pooled connection", n)
	}
}
