package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/baseline/innosim"
	"hiengine/internal/chaos"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/obs"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// harness is one running deployment: engine + baseline behind a frontend,
// served on a loopback listener.
type harness struct {
	engine *core.Engine
	inno   *innosim.DB
	srv    *Server
	addr   string
	reg    *obs.Registry
}

func newHarness(t testing.TB, mutate func(*Config), eng *chaos.Engine) *harness {
	return newHarnessModel(t, delay.Zero(), mutate, eng)
}

func newHarnessModel(t testing.TB, model *delay.Model, mutate func(*Config), eng *chaos.Engine) *harness {
	t.Helper()
	return newHarnessServer(t, model, mutate, eng, nil)
}

// newHarnessServer is newHarnessModel calling prep, when set, on the server
// before it serves.
func newHarnessServer(t testing.TB, model *delay.Model, mutate func(*Config), eng *chaos.Engine, prep func(*Server)) *harness {
	t.Helper()
	reg := obs.NewRegistry("servertest")
	// The chaos engine reaches the storage stack (wal, srss sites) through
	// the SRSS service, so server-level tests can also inject storage
	// faults; tests that arm only server sites are unaffected.
	engine, err := core.Open(core.Config{
		Service:     srss.New(srss.Config{Model: model, Chaos: eng}),
		Workers:     8,
		SegmentSize: 1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	inno, err := innosim.New(innosim.Config{
		Service:     srss.New(srss.Config{Model: delay.Zero()}),
		SegmentSize: 1 << 22,
	})
	if err != nil {
		engine.Close()
		t.Fatal(err)
	}
	front := sqlfront.NewFrontend("hiengine", adapt.New(engine))
	front.Register("innodb", inno)
	cfg := Config{
		Frontend:    front,
		WorkerSlots: engine.Workers(),
		Chaos:       eng,
		Obs:         reg,
		Stats: func() string {
			c := engine.Obs().Counter
			return fmt.Sprintf("commits=%d aborts=%d conflicts=%d\n",
				c("core.commits").Load(), c("core.aborts").Load(), c("core.conflicts").Load())
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		inno.Close()
		engine.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(srv)
	}
	go srv.Serve(ln)
	h := &harness{engine: engine, inno: inno, srv: srv, addr: ln.Addr().String(), reg: reg}
	t.Cleanup(func() {
		h.srv.Close()
		h.inno.Close()
		h.engine.Close()
	})
	return h
}

func (h *harness) client(t testing.TB, mutate func(*client.Options)) *client.Client {
	t.Helper()
	opts := client.Options{Addr: h.addr}
	if mutate != nil {
		mutate(&opts)
	}
	cl, err := client.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestRemoteBasic is the acceptance path: a remote session creates tables
// on both registered engines, runs a transactional write, reads it back
// across both engines, and fetches the stats snapshot.
func TestRemoteBasic(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, nil)

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Ping(); err != nil {
		t.Fatal(err)
	}
	mustExec := func(sql string, args ...core.Value) *wire.Result {
		t.Helper()
		res, err := s.Exec(sql, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExec("CREATE TABLE fast (id INT, v TEXT, PRIMARY KEY(id))")
	mustExec("CREATE TABLE slow (id INT, v TEXT, PRIMARY KEY(id)) WITH ENGINE=innodb")

	// Transactional write on the default engine, via SQL text (routed to
	// the dedicated opcodes, so the commit takes the pipelined path).
	mustExec("BEGIN")
	if !s.InTxn() {
		t.Fatal("not in txn after BEGIN")
	}
	mustExec("INSERT INTO fast VALUES (?, ?)", core.I(1), core.S("one"))
	mustExec("INSERT INTO fast VALUES (?, ?)", core.I(2), core.S("two"))
	mustExec("COMMIT")
	if s.InTxn() {
		t.Fatal("still in txn after COMMIT")
	}

	// A transaction on the second engine.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec("INSERT INTO slow VALUES (?, ?)", core.I(1), core.S("uno"))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	res := mustExec("SELECT v FROM fast WHERE id = ?", core.I(2))
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(core.S("two")) {
		t.Fatalf("fast read: %+v", res.Rows)
	}
	res = mustExec("SELECT v FROM slow WHERE id = ?", core.I(1))
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(core.S("uno")) {
		t.Fatalf("slow read: %+v", res.Rows)
	}

	// Rollback is visible.
	mustExec("BEGIN")
	mustExec("INSERT INTO fast VALUES (?, ?)", core.I(9), core.S("gone"))
	mustExec("ROLLBACK")
	if res := mustExec("SELECT v FROM fast WHERE id = ?", core.I(9)); len(res.Rows) != 0 {
		t.Fatalf("rolled-back row visible: %+v", res.Rows)
	}

	stats, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "commits=") {
		t.Fatalf("stats snapshot missing engine counters: %q", stats)
	}

	// Pipelined path: several statements in flight on one connection, the
	// commit answered at durability, and every completion resolves, in
	// whichever order the server answers.
	rc := dialRaw(t, h.addr)
	ids := []uint64{
		rc.send(wire.OpBegin, nil),
		rc.send(wire.OpExec, wire.AppendExec(nil, "INSERT INTO fast VALUES (?, ?)", []core.Value{core.I(10), core.S("a")})),
		rc.send(wire.OpExec, wire.AppendExec(nil, "INSERT INTO fast VALUES (?, ?)", []core.Value{core.I(11), core.S("b")})),
		rc.send(wire.OpCommit, nil),
	}
	for id, r := range rc.await(ids...) {
		if err := r.Err(); err != nil {
			t.Fatalf("pipelined request %d: %v", id, err)
		}
	}
	if res := mustExec("SELECT v FROM fast WHERE id = ?", core.I(11)); len(res.Rows) != 1 {
		t.Fatalf("pipelined commit not visible: %+v", res.Rows)
	}
}

// TestFramingViolations sends torn, oversize, and garbage bytes at a live
// server: each must fail only the offending connection; the server keeps
// serving fresh connections.
func TestFramingViolations(t *testing.T) {
	h := newHarness(t, nil, nil)

	send := func(raw []byte, closeAfter bool) {
		t.Helper()
		nc, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(raw); err != nil {
			t.Fatal(err)
		}
		if closeAfter {
			nc.(*net.TCPConn).CloseWrite()
		}
		// The server must close the connection (possibly after a
		// best-effort CodeBadRequest notice). Drain until EOF.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			f, err := wire.ReadFrame(nc, false)
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return // connection closed, as required
				}
				t.Fatalf("unexpected read error: %v", err)
			}
			code, _, _, derr := decodeResponse(f)
			if derr == nil && code == wire.CodeOK && f.RequestID == 0 {
				continue // the connection greeting
			}
			if derr != nil || code != wire.CodeBadRequest {
				t.Fatalf("unexpected pre-close frame: code=%v err=%v", code, derr)
			}
		}
	}

	// Garbage that is not a frame at all.
	send([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), false)
	// Oversize declared length.
	send(binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1), false)
	// Unknown opcode in a well-formed frame.
	send(wire.AppendFrame(nil, wire.Frame{RequestID: 1, Op: wire.Op(42)}), false)
	// Torn frame: half a header, then the client goes away.
	send(binary.BigEndian.AppendUint32(nil, 100)[:3], true)
	// Well-formed frame with a corrupt exec payload.
	send(wire.AppendFrame(nil, wire.Frame{RequestID: 1, Op: wire.OpExec, Payload: []byte{250, 1}}), false)
	// Exec payload whose argument row declares a near-2^64 string length:
	// must decode as corrupt (bad request + connection close), never reach
	// the allocator and panic the process.
	hostile := binary.AppendUvarint(nil, 1) // sql = "x"
	hostile = append(hostile, 'x')
	hostile = append(hostile, 1, byte(core.KindString)) // 1-column arg row
	hostile = binary.AppendUvarint(hostile, math.MaxUint64)
	send(wire.AppendFrame(nil, wire.Frame{RequestID: 1, Op: wire.OpExec, Payload: hostile}), false)

	// The server is still alive for a well-behaved client.
	cl := h.client(t, nil)
	if err := cl.Ping(); err != nil {
		t.Fatalf("server did not survive framing abuse: %v", err)
	}
}

// TestSessionCloseAbortsTxn closes a session mid-transaction: the abort
// must round-trip before the connection returns to the pool, so the next
// lessee of the same connection (= same server-side session) starts
// clean and the abandoned writes never commit.
func TestSessionCloseAbortsTxn(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) { o.MaxRetries = -1 })

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (?)", core.I(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// The pool holds one connection; the next session reuses it. A leaked
	// transaction would make Begin fail ("transaction already open") and
	// autocommit statements silently run inside the stale transaction.
	s2, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Begin(); err != nil {
		t.Fatalf("pooled connection inherited a stale transaction: %v", err)
	}
	if _, err := s2.Exec("INSERT INTO t VALUES (?)", core.I(2)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := s2.Exec("SELECT * FROM t WHERE id = ?", core.I(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("insert abandoned by Close is visible: %+v", res.Rows)
	}
}

// TestOversizeResultError asks for a scan result too large for one frame:
// the server must answer a clean per-request bad-request error (never
// write an over-MaxFrame frame the client would kill the connection
// over), and the connection must stay usable for bounded queries.
func TestOversizeResultError(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) { o.MaxRetries = -1 })

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE big (id INT, v TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	wide := strings.Repeat("x", 1<<20)
	for i := 0; i < 17; i++ { // ~17 MiB of result, over the 16 MiB frame cap
		if _, err := s.Exec("INSERT INTO big VALUES (?, ?)", core.I(int64(i)), core.S(wide)); err != nil {
			t.Fatal(err)
		}
	}

	_, err = s.Exec("SELECT * FROM big")
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("oversize result: want CodeBadRequest, got %v", err)
	}
	if !strings.Contains(we.Msg, "too large") {
		t.Fatalf("oversize result message: %q", we.Msg)
	}

	// Same session, same connection: a bounded query still works.
	res, err := s.Exec("SELECT v FROM big WHERE id = ?", core.I(3))
	if err != nil {
		t.Fatalf("connection died after oversize result: %v", err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0][0].Str()) != 1<<20 {
		t.Fatalf("bounded read after oversize result: %+v", len(res.Rows))
	}

	// As a transaction's first statement the oversize read carries the BEGIN:
	// its refusal must take the transaction it opened with it, or the next
	// statement's BEGIN would find one open.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err = s.Exec("SELECT * FROM big"); wire.CodeOf(err) != wire.CodeBadRequest {
		t.Fatalf("oversize result on the first statement: want CodeBadRequest, got %v", err)
	}
	if _, err := s.Exec("INSERT INTO big VALUES (?, ?)", core.I(100), core.S("in the transaction")); err != nil {
		t.Fatalf("statement after the refused first one: %v", err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Exec("SELECT id FROM big WHERE id = ?", core.I(100)); err != nil || len(res.Rows) != 0 {
		t.Fatalf("the insert ran outside the transaction: %+v, %v", res, err)
	}
}

// TestPoolExhaustionRetryable leases the whole pool and checks that the
// session-acquisition timeout is a retryable *wire.Error (CodeBusy), per
// the retryability matrix, so Client.Exec backs off across it instead of
// failing fast.
func TestPoolExhaustionRetryable(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) {
		o.PoolSize = 1
		o.RequestTimeout = 50 * time.Millisecond
		o.MaxRetries = 10
		o.RetryBase = 5 * time.Millisecond
	})

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}

	_, err = cl.Session() // pool exhausted: must time out retryable
	var we *wire.Error
	if !errors.As(err, &we) || !we.Retryable() || !errors.Is(err, wire.ErrServerBusy) {
		t.Fatalf("pool exhaustion must be a retryable busy wire error, got %v", err)
	}

	// Client.Exec's retry loop rides the busy code: it succeeds once the
	// held session frees the pool slot.
	go func() {
		time.Sleep(100 * time.Millisecond)
		s.Close()
	}()
	if _, err := cl.Exec("INSERT INTO t VALUES (?)", core.I(1)); err != nil {
		t.Fatalf("exec did not retry across pool exhaustion: %v", err)
	}
}

// TestBusyBackpressure exhausts the single worker slot and checks the
// typed, retryable rejection; a retrying client eventually gets through.
func TestBusyBackpressure(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.WorkerSlots = 1
		c.slotWait = 20 * time.Millisecond
	}, nil)
	cl := h.client(t, func(o *client.Options) { o.MaxRetries = -1 }) // no retry

	sa, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
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

	// The slot is leased to sa's transaction: sb must be refused with the
	// retryable busy code, visible through errors.Is on both sentinels. BEGIN
	// rides sb's first statement, so that is where the refusal arrives.
	sb, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if err := sb.Begin(); err != nil {
		t.Fatal(err)
	}
	_, err = sb.Exec("INSERT INTO t VALUES (?)", core.I(3))
	if !errors.Is(err, wire.ErrServerBusy) || !errors.Is(err, ErrServerBusy) {
		t.Fatalf("want ErrServerBusy, got %v", err)
	}
	var we *wire.Error
	if !errors.As(err, &we) || !we.Retryable() {
		t.Fatalf("busy must be retryable: %v", err)
	}
	// Nothing executed and nothing was opened: the transaction is still
	// sb's to start, and ending it costs the server nothing.
	if !sb.InTxn() {
		t.Fatal("a refused first statement ended the client-side transaction")
	}
	if err := sb.Rollback(); err != nil || sb.InTxn() {
		t.Fatalf("rollback of a transaction the server never opened: %v", err)
	}

	// A retrying client succeeds once the slot frees.
	done := make(chan error, 1)
	go func() {
		cl2 := h.client(t, func(o *client.Options) {
			o.MaxRetries = 10
			o.RetryBase = 10 * time.Millisecond
		})
		_, err := cl2.Exec("INSERT INTO t VALUES (?)", core.I(2))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := sa.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("retrying client never got the slot: %v", err)
	}
}

// TestFatalFailFast closes the engine under the server: clients must see
// the fatal closed code (errors.Is core.ErrClosed) and must not retry.
func TestFatalFailFast(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) {
		o.MaxRetries = 10
		o.RetryBase = 50 * time.Millisecond
	})
	if _, err := cl.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	h.engine.Close()

	start := time.Now()
	_, err := cl.Exec("INSERT INTO t VALUES (?)", core.I(1))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrClosed) {
		t.Fatalf("want core.ErrClosed across the wire, got %v", err)
	}
	var we *wire.Error
	if !errors.As(err, &we) || !wire.Fatal(we.Code) || we.Retryable() {
		t.Fatalf("closed engine must map to a fatal code: %v", err)
	}
	// Fatal means no backoff loop: with 10 x 50ms retries configured, a
	// fail-fast answer comes back well before even one backoff.
	if elapsed > 40*time.Millisecond {
		t.Fatalf("fatal error took %v: client retried a non-retryable code", elapsed)
	}
}

// TestKilledServer hard-closes the listener and connections mid-session:
// clients fail fast with I/O errors, never a retry storm.
func TestKilledServer(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) {
		o.MaxRetries = 10
		o.RetryBase = 50 * time.Millisecond
		o.DialTimeout = 200 * time.Millisecond
	})
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}

	// Kill: drain with an already-expired deadline to force-close conns.
	h.srv.draining.Store(true)
	h.srv.Close()

	start := time.Now()
	_, err = s.Exec("INSERT INTO t VALUES (?)", core.I(1))
	if err == nil {
		t.Fatal("exec succeeded on a killed server")
	}
	if retry := time.Since(start); retry > 2*time.Second {
		t.Fatalf("killed-server error took %v: retry storm", retry)
	}
	var we *wire.Error
	if errors.As(err, &we) && we.Retryable() {
		t.Fatalf("killed-server error must not be retryable: %v", err)
	}
}

// TestMaxConnsGreeting checks the greeting rejection: a connection beyond
// MaxConns is refused with a CodeBusy frame the client surfaces as the
// retryable busy sentinel.
func TestMaxConnsGreeting(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MaxConns = 1 }, nil)
	cl1 := h.client(t, nil)
	s1, err := cl1.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if err := s1.Ping(); err != nil { // pins the only connection slot
		t.Fatal(err)
	}

	cl2 := h.client(t, func(o *client.Options) { o.MaxRetries = -1 })
	err = cl2.Ping()
	if !errors.Is(err, wire.ErrServerBusy) {
		t.Fatalf("want greeting ErrServerBusy, got %v", err)
	}
}

// TestGracefulDrain shuts down while a commit is in flight: the drain must
// wait for its durability callback, the commit must succeed, and the drain
// must return nil (no timeout). The cloud latency model
// keeps the commit in its durability wait long enough to observe it
// admitted (via the inflight gauge) before the drain starts.
func TestGracefulDrain(t *testing.T) {
	h := newHarnessModel(t, delay.CloudProfile(), nil, nil)
	cl := h.client(t, nil)
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE t (id INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (?)", core.I(1)); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- s.Commit() }()
	// Wait until the commit is admitted (it holds its in-flight token
	// until the durability callback answers). If the window is missed the
	// commit already answered, which the assertions below still cover.
	// Requests on one connection are handled in order, so once the commit
	// has been counted the INSERT's token is back and a nonzero gauge can
	// only be the commit's -- without the counter, the INSERT's token (given
	// back just after its response is written) could end this wait before
	// the commit frame has even arrived, and the drain would refuse it.
	commits := h.reg.Counter("server.requests." + wire.OpCommit.String())
	inflight := h.reg.Gauge("server.inflight")
	for end := time.Now().Add(2 * time.Second); (commits.Load() == 0 || inflight.Load() == 0) && time.Now().Before(end); {
		time.Sleep(50 * time.Microsecond)
	}
	if err := h.srv.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-committed; err != nil {
		t.Fatalf("in-flight commit lost by drain: %v", err)
	}
	// New work is refused.
	cl2 := h.client(t, func(o *client.Options) {
		o.MaxRetries = -1
		o.DialTimeout = 200 * time.Millisecond
	})
	if err := cl2.Ping(); err == nil {
		t.Fatal("ping succeeded after drain")
	}
}

// --- chaos soak ------------------------------------------------------------

// pairState is the oracle's record of one two-key transaction.
type pairState struct {
	k1, k2 int64
	// outcome: +1 committed, -1 aborted, 0 ambiguous (connection died
	// around the commit; either fate is legal, but atomically).
	outcome int
}

// TestSoakChaos is the race-enabled soak: N clients run mixed
// explicit-transaction and autocommit traffic over real TCP while chaos
// drops connections mid-response, rejects accepts, and delays reads. An
// oracle tracks every transaction's fate from the client's view; after
// the storm the database must agree, and every two-key transaction must
// be atomic. Shutdown must then drain cleanly.
func TestSoakChaos(t *testing.T) {
	eng := chaos.New(0xC0FFEE)
	eng.Arm(chaos.Rule{Site: SiteWrite, Action: chaos.Fault, Prob: 0.02})
	eng.Arm(chaos.Rule{Site: SiteAccept, Action: chaos.Fault, Prob: 0.10})
	eng.Arm(chaos.Rule{Site: SiteRead, Action: chaos.Delay, Prob: 0.05, Delay: 200 * time.Microsecond})

	h := newHarness(t, func(c *Config) {
		c.DrainTimeout = 10 * time.Second
		// Timeouts armed but generous: chaos read delays and storm-induced
		// stalls must never be misread as slowloris connections.
		c.readTimeout = 2 * time.Second
		c.idleTimeout = 5 * time.Second
	}, eng)

	setup := h.client(t, func(o *client.Options) { o.MaxRetries = 20; o.RetryBase = time.Millisecond })
	if _, err := setup.Exec("CREATE TABLE soak (id INT, v TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}

	const nClients = 8
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 300 * time.Millisecond
	}

	var (
		mu        sync.Mutex
		pairs     []pairState
		autoKeys  []int64 // autocommit inserts confirmed committed
		conflicts int
		wg        sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	for ci := 0; ci < nClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := h.client(t, func(o *client.Options) {
				o.Seed = uint64(ci + 1)
				o.MaxRetries = 20
				o.RetryBase = time.Millisecond
				o.RequestTimeout = 5 * time.Second
			})
			key := int64(ci+1) << 22 // disjoint per-client ranges
			for seq := int64(0); time.Now().Before(deadline); seq++ {
				if seq%4 == 3 {
					// Autocommit insert: Client.Exec retries busy codes.
					k := key + 1<<21 + seq
					if _, err := cl.Exec("INSERT INTO soak VALUES (?, ?)",
						core.I(k), core.S("auto")); err == nil {
						mu.Lock()
						autoKeys = append(autoKeys, k)
						mu.Unlock()
					}
					continue
				}
				// Two-key explicit transaction; even sequences run through
				// prepared handles so the prepared path soaks under the same
				// chaos as the text path. A prepare failure happens before
				// anything is written, so it counts as stage 0 (aborted).
				usePrepared := seq%2 == 0
				k1, k2 := key+2*seq, key+2*seq+1
				p := pairState{k1: k1, k2: k2}
				s, err := cl.Session()
				if err != nil {
					continue // pool/greeting pressure; nothing started
				}
				stage := 0
				err = func() error {
					var ins *client.Stmt
					if usePrepared {
						var perr error
						if ins, perr = s.Prepare("INSERT INTO soak VALUES (?, ?)"); perr != nil {
							return perr
						}
					}
					insert := func(k int64, v string) error {
						if usePrepared {
							_, err := ins.Exec(core.I(k), core.S(v))
							return err
						}
						_, err := s.Exec("INSERT INTO soak VALUES (?, ?)", core.I(k), core.S(v))
						return err
					}
					if err := s.Begin(); err != nil {
						return err
					}
					stage = 1
					if err := insert(k1, "a"); err != nil {
						return err
					}
					if err := insert(k2, "b"); err != nil {
						return err
					}
					stage = 2
					return s.Commit()
				}()
				s.Close() // closes any prepared handle before pooling the conn
				switch {
				case err == nil:
					p.outcome = +1
				case stage < 2:
					// Failed before commit was sent: the server aborts the
					// transaction (explicitly or via connection teardown).
					p.outcome = -1
				default:
					// Commit round trip failed. A definitive wire response
					// means not committed; a dead connection is ambiguous
					// (the response may have been dropped mid-write after
					// the commit went durable).
					var we *wire.Error
					if errors.As(err, &we) {
						p.outcome = -1
						if we.Code == wire.CodeConflict {
							mu.Lock()
							conflicts++
							mu.Unlock()
						}
					} else {
						p.outcome = 0
					}
				}
				mu.Lock()
				pairs = append(pairs, p)
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()

	// Calm the network and audit the oracle through a clean client.
	eng.Disarm(SiteWrite)
	eng.Disarm(SiteAccept)
	eng.Disarm(SiteRead)
	verify := h.client(t, func(o *client.Options) { o.MaxRetries = 20; o.RetryBase = time.Millisecond })
	present := func(k int64) bool {
		t.Helper()
		res, err := verify.Exec("SELECT v FROM soak WHERE id = ?", core.I(k))
		if err != nil {
			t.Fatalf("verify read %d: %v", k, err)
		}
		return len(res.Rows) > 0
	}

	var committed, aborted, ambiguous int
	for _, p := range pairs {
		a, b := present(p.k1), present(p.k2)
		if a != b {
			t.Fatalf("atomicity violated: pair (%d,%d) split %v/%v (outcome %d)", p.k1, p.k2, a, b, p.outcome)
		}
		switch p.outcome {
		case +1:
			if !a {
				t.Fatalf("durability violated: committed pair (%d,%d) missing", p.k1, p.k2)
			}
			committed++
		case -1:
			if a {
				t.Fatalf("aborted pair (%d,%d) is visible", p.k1, p.k2)
			}
			aborted++
		default:
			ambiguous++
		}
	}
	for _, k := range autoKeys {
		if !present(k) {
			t.Fatalf("autocommit key %d acknowledged but missing", k)
		}
	}
	if committed == 0 {
		t.Fatal("soak committed nothing: chaos too aggressive to be meaningful")
	}
	if conflicts > 0 {
		t.Fatalf("disjoint key ranges produced %d conflicts", conflicts)
	}
	t.Logf("soak: %d clients, %d pairs (%d committed, %d aborted, %d ambiguous), %d autocommit; chaos fired: write=%d accept=%d read=%d",
		nClients, len(pairs), committed, aborted, ambiguous, len(autoKeys),
		eng.Fired(SiteWrite), eng.Fired(SiteAccept), eng.Fired(SiteRead))

	if err := h.srv.Close(); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
}

// decodeResponse splits a response frame read off a raw connection.
func decodeResponse(f wire.Frame) (wire.Code, string, []byte, error) {
	r, err := wire.DecodeResponseFrame(f)
	return r.Code, r.Msg, r.Body, err
}

// rawConn speaks the protocol on a bare connection, so a test can put several
// requests in flight before it reads a response, as a pipelining client
// would.
type rawConn struct {
	t     testing.TB
	nc    net.Conn
	reqID uint64
}

// dialRaw connects to addr and reads the greeting.
func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if f, err := wire.ReadFrame(nc, false); err != nil || f.RequestID != 0 {
		t.Fatalf("greeting frame: id=%d err=%v", f.RequestID, err)
	}
	return &rawConn{t: t, nc: nc}
}

// send writes one request and returns its id.
func (rc *rawConn) send(op wire.Op, payload []byte) uint64 {
	rc.t.Helper()
	rc.reqID++
	if err := wire.WriteFrame(rc.nc, wire.Frame{RequestID: rc.reqID, Op: op, Payload: payload}); err != nil {
		rc.t.Fatal(err)
	}
	return rc.reqID
}

// await reads the responses to ids, in whichever order the server sends them,
// and returns them by id; a response to any other request fails the test.
func (rc *rawConn) await(ids ...uint64) map[uint64]wire.Response {
	rc.t.Helper()
	got := make(map[uint64]wire.Response, len(ids))
	want := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for len(got) < len(ids) {
		f, err := wire.ReadFrame(rc.nc, false)
		if err != nil {
			rc.t.Fatal(err)
		}
		if _, dup := got[f.RequestID]; !want[f.RequestID] || dup {
			rc.t.Fatalf("response to request %d, which is not in flight", f.RequestID)
		}
		r, err := wire.DecodeResponseFrame(f)
		if err != nil {
			rc.t.Fatal(err)
		}
		got[f.RequestID] = r
	}
	return got
}

// roundTrip sends one request and reads its response.
func (rc *rawConn) roundTrip(op wire.Op, payload []byte) wire.Response {
	rc.t.Helper()
	id := rc.send(op, payload)
	return rc.await(id)[id]
}
