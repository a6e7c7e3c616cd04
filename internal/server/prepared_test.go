package server

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/wire"
)

// TestArgumentRowDoesNotLeakBetweenStatements: a connection decodes every
// statement's arguments into the same row, so nothing a statement writes may
// keep pointing into it. An INSERT's TEXT arguments are read back, inside its
// transaction and after the commit, once statements of other widths and
// values have been decoded over them; and a short argument row is never
// padded with the previous statement's values.
func TestArgumentRowDoesNotLeakBetweenStatements(t *testing.T) {
	h := newHarness(t, nil, nil)
	s, err := h.client(t, nil).Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE al (id INT, v TEXT, w TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Prepare("INSERT INTO al VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := s.Prepare("SELECT v, w FROM al WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("first insert, second column ", 200)
	check := func(when string, id int64, v, w string) {
		t.Helper()
		res, err := sel.Exec(core.I(id))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != v || res.Rows[0][1].Str() != w {
			t.Fatalf("%s: row %d reads %v, err %v", when, id, res, err)
		}
	}
	others := func() {
		t.Helper()
		if _, err := s.Exec("UPDATE al SET w = ? WHERE id = ?", core.S(strings.Repeat("x", len(long))), core.I(99)); err != nil {
			t.Fatal(err)
		}
		if _, err := ins.Exec(core.I(7)); err == nil || !strings.Contains(err.Error(), "parameter count") {
			t.Fatalf("a one-value row after three-value ones: %v", err)
		}
		if _, err := sel.Exec(core.I(99)); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(core.I(1), core.S(long), core.S("w1")); err != nil {
		t.Fatal(err)
	}
	others()
	check("in its transaction", 1, long, "w1")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	others()
	check("after the commit", 1, long, "w1")

	if _, err := s.Exec("INSERT INTO al VALUES (?, ?, ?)", core.I(2), core.S("autocommit"), core.S("w2")); err != nil {
		t.Fatal(err)
	}
	others()
	check("autocommit text INSERT", 2, "autocommit", "w2")
	check("the first row still", 1, long, "w1")
}

// TestPreparedFlow is the prepared-statement acceptance path: prepare,
// execute by id (autocommit and inside an explicit transaction), close,
// parameter-count errors, and a fully pipelined prepared transaction
// including a prepared COMMIT answered at durability.
func TestPreparedFlow(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, nil)

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE t (id INT, v TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}

	ins, err := s.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", ins.NumParams())
	}
	sel, err := s.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}

	// Autocommit executions by id.
	for i := int64(0); i < 5; i++ {
		if _, err := ins.Exec(core.I(i), core.S("v")); err != nil {
			t.Fatalf("prepared insert %d: %v", i, err)
		}
	}
	res, err := sel.Exec(core.I(3))
	if err != nil || len(res.Rows) != 1 || !res.Rows[0][0].Equal(core.S("v")) {
		t.Fatalf("prepared select: %v %+v", err, res)
	}

	// Wrong arity travels as the param-count sentinel (CodeBadRequest).
	_, err = ins.Exec(core.I(9))
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("param mismatch: want CodeBadRequest, got %v", err)
	}
	if !strings.Contains(we.Msg, "parameter count") {
		t.Fatalf("param mismatch message: %q", we.Msg)
	}
	// The failed call must not poison the statement.
	if _, err := ins.Exec(core.I(9), core.S("v")); err != nil {
		t.Fatalf("prepared insert after arity error: %v", err)
	}

	// Prepared statements inside an explicit transaction.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(core.I(100), core.S("txn")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if res, err := sel.Exec(core.I(100)); err != nil || len(res.Rows) != 1 {
		t.Fatalf("txn prepared insert not visible: %v %+v", err, res)
	}

	// A prepared COMMIT ends the client-side transaction as Commit does.
	commit, err := s.Prepare("COMMIT")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(core.I(101), core.S("txn")); err != nil {
		t.Fatal(err)
	}
	if _, err := commit.Exec(); err != nil {
		t.Fatal(err)
	}
	if s.InTxn() {
		t.Fatal("prepared COMMIT did not clear the txn flag")
	}

	// Fully pipelined prepared transaction: BEGIN, two prepared inserts,
	// and a prepared COMMIT all in flight before the first response. The
	// prepared COMMIT must take the server's pipelined durability path.
	rc := dialRaw(t, h.addr)
	prepare := func(sql string) uint64 {
		t.Helper()
		r := rc.roundTrip(wire.OpPrepare, wire.EncodePrepare(sql))
		id, _, err := wire.DecodePrepareResult(r.Body)
		if err := errors.Join(r.Err(), err); err != nil {
			t.Fatalf("prepare %q: %v", sql, err)
		}
		return id
	}
	rawIns, rawCommit := prepare("INSERT INTO t VALUES (?, ?)"), prepare("COMMIT")
	ids := []uint64{
		rc.send(wire.OpBegin, nil),
		rc.send(wire.OpExecStmt, wire.AppendExecStmt(nil, rawIns, []core.Value{core.I(200), core.S("p")})),
		rc.send(wire.OpExecStmt, wire.AppendExecStmt(nil, rawIns, []core.Value{core.I(201), core.S("p")})),
		rc.send(wire.OpExecStmt, wire.AppendExecStmt(nil, rawCommit, nil)),
	}
	for id, r := range rc.await(ids...) {
		if err := r.Err(); err != nil {
			t.Fatalf("pipelined request %d: %v", id, err)
		}
	}
	if res, err := sel.Exec(core.I(201)); err != nil || len(res.Rows) != 1 {
		t.Fatalf("pipelined prepared commit not visible: %v %+v", err, res)
	}

	// Close; execution afterwards is a client-side error.
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(core.I(1), core.S("v")); !errors.Is(err, client.ErrStmtClosed) {
		t.Fatalf("exec on closed stmt: want ErrStmtClosed, got %v", err)
	}
	// Closing twice is a no-op.
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
	// The session (and its other statement) still works.
	if _, err := sel.Exec(core.I(3)); err != nil {
		t.Fatalf("sibling stmt after close: %v", err)
	}
}

// TestPreparedRawProtocol drives the prepared opcodes with hand-built
// frames: unknown statement ids are per-request bad-request errors (the
// connection survives), close is idempotent, and a prepare beyond the
// statement-table bound is refused.
func TestPreparedRawProtocol(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.maxStmts = 4 }, nil)
	setup := h.client(t, nil)
	if _, err := setup.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, h.addr)
	roundTrip := func(op wire.Op, payload []byte) (wire.Code, string, []byte) {
		t.Helper()
		r := rc.roundTrip(op, payload)
		return r.Code, r.Msg, r.Body
	}

	// Executing an id never issued is a bad request, not a dead connection.
	code, msg, _ := roundTrip(wire.OpExecStmt, wire.AppendExecStmt(nil, 999, []core.Value{core.I(1)}))
	if code != wire.CodeBadRequest || !strings.Contains(msg, "unknown statement") {
		t.Fatalf("unknown stmt id: code=%v msg=%q", code, msg)
	}

	// Prepare and execute by id on the raw connection.
	code, msg, body := roundTrip(wire.OpPrepare, wire.EncodePrepare("INSERT INTO t VALUES (?)"))
	if code != wire.CodeOK {
		t.Fatalf("prepare: code=%v msg=%q", code, msg)
	}
	id, n, err := wire.DecodePrepareResult(body)
	if err != nil || n != 1 {
		t.Fatalf("prepare result: id=%d n=%d err=%v", id, n, err)
	}
	if code, msg, _ = roundTrip(wire.OpExecStmt, wire.AppendExecStmt(nil, id, []core.Value{core.I(1)})); code != wire.CodeOK {
		t.Fatalf("exec stmt: code=%v msg=%q", code, msg)
	}

	// Close is idempotent: both the live id and a never-issued id succeed.
	if code, msg, _ = roundTrip(wire.OpCloseStmt, wire.EncodeHandle(id)); code != wire.CodeOK {
		t.Fatalf("close stmt: code=%v msg=%q", code, msg)
	}
	if code, msg, _ = roundTrip(wire.OpCloseStmt, wire.EncodeHandle(id)); code != wire.CodeOK {
		t.Fatalf("re-close stmt: code=%v msg=%q", code, msg)
	}
	// The closed id is gone.
	if code, _, _ = roundTrip(wire.OpExecStmt, wire.AppendExecStmt(nil, id, []core.Value{core.I(2)})); code != wire.CodeBadRequest {
		t.Fatalf("exec closed stmt: code=%v", code)
	}

	// The statement table is bounded: the (maxStmts+1)th prepare fails,
	// earlier ones survive.
	var ids []uint64
	for i := 0; i < 4; i++ {
		code, msg, body := roundTrip(wire.OpPrepare, wire.EncodePrepare("SELECT id FROM t WHERE id = ?"))
		if code != wire.CodeOK {
			t.Fatalf("prepare %d: code=%v msg=%q", i, code, msg)
		}
		pid, _, _ := wire.DecodePrepareResult(body)
		ids = append(ids, pid)
	}
	code, msg, _ = roundTrip(wire.OpPrepare, wire.EncodePrepare("SELECT id FROM t WHERE id = ?"))
	if code != wire.CodeBadRequest || !strings.Contains(msg, "statement table full") {
		t.Fatalf("over-bound prepare: code=%v msg=%q", code, msg)
	}
	if code, _, _ = roundTrip(wire.OpExecStmt, wire.AppendExecStmt(nil, ids[0], []core.Value{core.I(1)})); code != wire.CodeOK {
		t.Fatalf("stmt lost after bound rejection: code=%v", code)
	}
}

// TestPreparedDDLStaleness is the staleness regression over the wire: a
// statement prepared before DDL (possibly issued by a different
// connection) must not execute a stale plan -- the server revalidates the
// catalog generation and recompiles transparently.
func TestPreparedDDLStaleness(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, nil)

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE a (id INT, v TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO a VALUES (?, ?)", core.I(1), core.S("one")); err != nil {
		t.Fatal(err)
	}
	sel, err := s.Prepare("SELECT v FROM a WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sel.Exec(core.I(1)); err != nil || len(res.Rows) != 1 {
		t.Fatalf("pre-DDL prepared exec: %v %+v", err, res)
	}

	// DDL from a different connection stamps every cached plan stale.
	s2, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("CREATE TABLE b (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	inv := h.srv.cfg.Frontend.PlanCacheStats().Invalidations
	res, err := sel.Exec(core.I(1))
	if err != nil || len(res.Rows) != 1 || !res.Rows[0][0].Equal(core.S("one")) {
		t.Fatalf("post-DDL prepared exec: %v %+v", err, res)
	}
	if got := h.srv.cfg.Frontend.PlanCacheStats().Invalidations; got == inv {
		t.Fatal("prepared statement executed without revalidating across DDL")
	}

	// The stats opcode surfaces the plan cache counters remotely.
	stats, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "plancache ") {
		t.Fatalf("stats missing plan cache line: %q", stats)
	}
}

// TestStmtHygienePooledReuse is the id-leak regression: closing a session
// must close its server-side statements before the connection returns to
// the pool, so the next lessee of the same server-side session starts
// with an empty statement table (observed via the stmts_open gauge).
func TestStmtHygienePooledReuse(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) { o.PoolSize = 1 })

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Prepare("INSERT INTO t VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare("SELECT id FROM t WHERE id = ?"); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(core.I(1)); err != nil {
		t.Fatal(err)
	}
	open := h.reg.Gauge("server.stmts_open")
	if got := open.Load(); got != 2 {
		t.Fatalf("stmts_open = %d, want 2", got)
	}

	// Close round-trips the statement closes before pooling the conn.
	s.Close()
	if got := open.Load(); got != 0 {
		t.Fatalf("stmts_open = %d after session close, want 0 (ids leaked into the pool)", got)
	}

	// The next lessee reuses the same connection (PoolSize=1) and the same
	// server-side session: a stale handle must fail client-side, and fresh
	// prepares work.
	s2, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := ins.Exec(core.I(2)); !errors.Is(err, client.ErrStmtClosed) {
		t.Fatalf("stale handle on reused conn: want ErrStmtClosed, got %v", err)
	}
	ins2, err := s2.Prepare("INSERT INTO t VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins2.Exec(core.I(2)); err != nil {
		t.Fatal(err)
	}
	if got := open.Load(); got != 1 {
		t.Fatalf("stmts_open = %d, want 1", got)
	}
}

// TestSessionCloseClosesStatementsAndCursors: Session.Close closes every open
// statement and cursor, one request each, before it pools the connection:
// the server's statement and cursor gauges return to 0, and the next session
// gets the same connection.
func TestSessionCloseClosesStatementsAndCursors(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) { o.PoolSize = 1 })
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if _, err := s.Exec("INSERT INTO t VALUES (?)", core.I(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{"INSERT INTO t VALUES (?)", "SELECT id FROM t WHERE id = ?"} {
		if _, err := s.Prepare(sql); err != nil {
			t.Fatal(err)
		}
	}
	s.SetFetchSize(1)
	if _, err := s.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	stmts := h.reg.Gauge("server.stmts_open")
	if stmts.Load() != 2 || h.srv.CursorsOpen() != 1 {
		t.Fatalf("open before Close: %d statements, %d cursors; want 2 and 1", stmts.Load(), h.srv.CursorsOpen())
	}
	s.Close()
	if stmts.Load() != 0 || h.srv.CursorsOpen() != 0 {
		t.Fatalf("open after Close: %d statements, %d cursors; want 0 and 0", stmts.Load(), h.srv.CursorsOpen())
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if n := h.reg.Counter("server.conns_total").Load(); n != 1 {
		t.Fatalf("%d connections accepted: the closed session's connection was not pooled", n)
	}
}

// TestIdleReap is the connection-starvation regression: a connection that
// sends nothing holds a MaxConns seat only until idleTimeout; the reap
// frees the seat for a real client and the server keeps running.
func TestIdleReap(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.MaxConns = 1
		c.idleTimeout = 150 * time.Millisecond
		c.readTimeout = 100 * time.Millisecond
	}, nil)

	// The slowloris: connect and go silent, pinning the only seat.
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// While the seat is pinned, a second connection is refused busy.
	cl := h.client(t, func(o *client.Options) { o.MaxRetries = -1 })
	if err := cl.Ping(); !errors.Is(err, wire.ErrServerBusy) {
		t.Fatalf("want busy greeting while seat pinned, got %v", err)
	}

	// The idle conn is reaped: it sees a CodeClosed notice and/or EOF.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := nc.Read(buf); err != nil {
			break
		}
	}
	if got := h.reg.Counter("server.idle_reaped").Load(); got == 0 {
		t.Fatal("idle connection closed without an idle_reaped count")
	}

	// The seat is free again: a retrying client gets through. The reaped
	// connection's socket closes (what the read above saw) just before its
	// seat is given back, and Ping itself does not retry a busy greeting, so
	// the test does.
	cl2 := h.client(t, func(o *client.Options) { o.MaxRetries = 20; o.RetryBase = 10 * time.Millisecond })
	err = cl2.Ping()
	for end := time.Now().Add(2 * time.Second); errors.Is(err, wire.ErrServerBusy) && time.Now().Before(end); err = cl2.Ping() {
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("seat not released by idle reap: %v", err)
	}
}

// TestReadTimeoutMidFrame stalls a frame after its length prefix: the
// per-frame readTimeout must kill the connection even though the idle
// budget is long, because the frame has started arriving.
func TestReadTimeoutMidFrame(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.readTimeout = 100 * time.Millisecond
		c.idleTimeout = time.Hour // only the per-frame budget may fire
	}, nil)

	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Declare a 100-byte frame and never send the body.
	if _, err := nc.Write(binary.BigEndian.AppendUint32(nil, 100)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := nc.Read(buf); err != nil {
			break
		}
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("mid-frame stall survived %v (readTimeout 100ms)", waited)
	}
	if got := h.reg.Counter("server.read_timeouts").Load(); got == 0 {
		t.Fatal("mid-frame stall closed without a read_timeouts count")
	}
	// The server is fine.
	if err := h.client(t, nil).Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestReadTimeoutReleasesSlot stalls a client inside an open transaction:
// the in-txn read budget reaps it, the rollback in teardown releases the
// single worker slot, and a second client's transaction proceeds.
func TestReadTimeoutReleasesSlot(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.WorkerSlots = 1
		c.slotWait = 20 * time.Millisecond
		c.readTimeout = 150 * time.Millisecond
	}, nil)
	cl := h.client(t, func(o *client.Options) { o.MaxRetries = -1 })

	sa, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	// No goroutine pins a session's connection: were sa to become unreachable
	// mid-test, the collector could close its socket, and the server would see
	// a hang-up instead of the stall.
	defer sa.Close()
	if _, err := sa.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	if err := sa.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Exec("INSERT INTO t VALUES (?)", core.I(1)); err != nil {
		t.Fatal(err)
	}
	// sa now holds the only worker slot and goes silent (the stall).

	// A second client's transaction succeeds once the reap frees the slot;
	// busy rejections before that are retried.
	cl2 := h.client(t, func(o *client.Options) { o.MaxRetries = 30; o.RetryBase = 10 * time.Millisecond })
	s2, err := cl2.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Begin(); err != nil {
		t.Fatal(err)
	}
	// The BEGIN rides this statement, which is reissued while refused.
	if _, err := s2.Exec("INSERT INTO t VALUES (?)", core.I(2)); err != nil {
		t.Fatalf("slot never released by in-txn read timeout: %v", err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := h.reg.Counter("server.read_timeouts").Load(); got == 0 {
		t.Fatal("stalled in-txn connection was not counted as a read timeout")
	}
	// The stalled session's abandoned write must not be visible.
	res, err := s2.Exec("SELECT id FROM t WHERE id = ?", core.I(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("write from reaped transaction is visible")
	}
}

// TestTimeoutsUnderReadChaos arms the read-delay chaos site with timeouts
// configured: injected read delays (which model a congested link after a
// frame has arrived) must not be charged against the deadline budget of
// well-behaved traffic, while a genuinely silent connection is still
// reaped.
func TestTimeoutsUnderReadChaos(t *testing.T) {
	eng := chaos.New(7)
	eng.Arm(chaos.Rule{Site: SiteRead, Action: chaos.Delay, Prob: 0.5, Delay: 2 * time.Millisecond})
	h := newHarness(t, func(c *Config) {
		c.readTimeout = 300 * time.Millisecond
		c.idleTimeout = 400 * time.Millisecond
	}, eng)
	cl := h.client(t, nil)

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE t (id INT, v TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	// Steady prepared traffic under injected delays, spread over several
	// idle windows: no statement may fail, no false reap may fire.
	for i := int64(0); i < 40; i++ {
		if _, err := ins.Exec(core.I(i), core.S("v")); err != nil {
			t.Fatalf("insert %d under read chaos: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.reg.Counter("server.read_timeouts").Load(); got != 0 {
		t.Fatalf("well-behaved traffic hit %d read timeouts", got)
	}

	// A silent conn still reaps while chaos is armed.
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := nc.Read(buf); err != nil {
			break
		}
	}
	if got := h.reg.Counter("server.idle_reaped").Load(); got == 0 {
		t.Fatal("idle connection survived with chaos armed")
	}
}

// TestTextSQLCachedPastItsFrame: an OpExec's SQL text is decoded borrowed,
// aliasing the request frame, which the connection reads its next request
// into. Two texts of one length, each executed in turn over one connection
// so that the second's frame overwrites the first's bytes, are each compiled
// once and then found in the plan cache under their own text: the cache
// keeps copies, never the frame.
func TestTextSQLCachedPastItsFrame(t *testing.T) {
	h := newHarness(t, nil, nil)
	s, err := h.client(t, nil).Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, q := range []string{
		"CREATE TABLE a (id INT, v TEXT, PRIMARY KEY(id))",
		"CREATE TABLE b (id INT, v TEXT, PRIMARY KEY(id))",
		"INSERT INTO a VALUES (1, 'one')",
		"INSERT INTO b VALUES (1, 'uno')",
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	texts := []struct{ q, want string }{{"SELECT v FROM a WHERE id = ?", "one"}, {"SELECT v FROM b WHERE id = ?", "uno"}}
	before := h.srv.cfg.Frontend.PlanCacheStats()
	for round := 0; round < 2; round++ {
		for _, x := range texts {
			res, err := s.Exec(x.q, core.I(1))
			if err != nil || len(res.Rows) != 1 || !res.Rows[0][0].Equal(core.S(x.want)) {
				t.Fatalf("round %d, %q: %v %+v, want %q", round, x.q, err, res, x.want)
			}
		}
	}
	after := h.srv.cfg.Frontend.PlanCacheStats()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 2 || hits != 2 {
		t.Fatalf("two texts executed twice each: %d misses and %d hits, want 2 and 2", misses, hits)
	}
}
