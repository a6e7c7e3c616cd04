package client

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/wire"
)

// fakeServer is a listener answering request frames from a script: for each
// request the script names the status code to answer with (CodeOK answers
// the opcode's canonical success body, or what body returns). A handle
// function takes over answering altogether: now, later or never. It counts
// what it was sent.
type fakeServer struct {
	addr   string
	script func(op wire.Op) wire.Code

	// Set, if at all, before the first connection (set takes mu).
	epoch  uint64 // greeted
	body   func(f wire.Frame) []byte
	handle func(fc *fakeConn, f wire.Frame)

	mu      sync.Mutex
	seen    map[wire.Op]int
	flags   []uint64 // statement flags of every exec / exec_stmt, in arrival order
	accepts int
}

// fakeConn is one accepted connection of a fakeServer.
type fakeConn struct {
	fs *fakeServer
	nc net.Conn
}

func (fc *fakeConn) reply(id uint64, code wire.Code, body []byte) {
	fc.nc.Write(wire.AppendResponseFrame(nil, id, nil, code, "scripted", body))
}

func newFakeServer(t *testing.T, script func(op wire.Op) wire.Code) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	fs := &fakeServer{addr: ln.Addr().String(), script: script, seen: make(map[wire.Op]int)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fs.mu.Lock()
			fs.accepts++
			fs.mu.Unlock()
			go (&fakeConn{fs: fs, nc: nc}).serve()
		}
	}()
	return fs
}

// set changes the server's optional behaviour.
func (fs *fakeServer) set(change func(fs *fakeServer)) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	change(fs)
}

func (fc *fakeConn) serve() {
	fs := fc.fs
	defer fc.nc.Close()
	fs.mu.Lock() // orders this goroutine after set
	epoch := fs.epoch
	fs.mu.Unlock()
	fc.reply(0, wire.CodeOK, wire.EncodeGreeting(wire.RolePrimary, "", epoch))
	fr := wire.NewFrameReader(fc.nc, true)
	for {
		f, err := fr.Read()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.seen[f.Op]++
		switch f.Op {
		case wire.OpExec:
			_, _, flags, _ := wire.DecodeExecFlags(f.Payload, nil)
			fs.flags = append(fs.flags, flags)
		case wire.OpExecStmt:
			_, _, flags, _ := wire.DecodeExecStmtFlags(f.Payload, nil)
			fs.flags = append(fs.flags, flags)
		}
		fs.mu.Unlock()
		if fs.handle != nil {
			fs.handle(fc, f)
			continue
		}
		code := fs.script(f.Op)
		var body []byte
		if code == wire.CodeOK {
			switch {
			case fs.body != nil:
				body = fs.body(f)
			case f.Op == wire.OpPrepare:
				body = wire.EncodePrepareResult(1, 0)
			case f.Op == wire.OpScanOpen, f.Op == wire.OpScanNext:
				body = wire.AppendCursorPage(nil, 1, false, nil, 0, nil) // an empty page, more to come
			case f.Op == wire.OpExecBatch:
				body = wire.AppendBatchResult(nil, []int{1}, 0)
			}
		}
		fc.reply(f.RequestID, code, body)
	}
}

func (fs *fakeServer) count(op wire.Op) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.seen[op]
}

// frames is the number of request frames received so far.
func (fs *fakeServer) frames() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for _, c := range fs.seen {
		n += c
	}
	return n
}

// stmtFlags returns the flags of the statements received so far.
func (fs *fakeServer) stmtFlags() []uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]uint64(nil), fs.flags...)
}

func (fs *fakeServer) client(t *testing.T, mutate func(*Options)) *Client {
	t.Helper()
	opts := Options{Addr: fs.addr, MaxRetries: 3, RetryBase: 50 * time.Microsecond}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func allOK(wire.Op) wire.Code { return wire.CodeOK }

// TestRetryAttemptsByClass sends one opcode of each retry class against a
// server that keeps answering one code, in and outside a transaction, and
// counts the attempts: 1 + MaxRetries exactly where the opcode table's class
// allows the code, one everywhere else.
func TestRetryAttemptsByClass(t *testing.T) {
	ops := []struct {
		op   wire.Op
		send func(s *Session) error
	}{
		{wire.OpPing, (*Session).Ping},
		{wire.OpPrepare, func(s *Session) error { _, err := s.Prepare("SELECT 1"); return err }},
		{wire.OpExec, func(s *Session) error { _, err := s.Exec("INSERT INTO t VALUES (?)", core.I(1)); return err }},
		{wire.OpExecStmt, func(s *Session) error {
			// The handle is made by hand: preparing would itself be scripted.
			_, err := (&Stmt{s: s, id: 1}).Exec()
			return err
		}},
		{wire.OpExecBatch, func(s *Session) error {
			_, err := s.ExecBatch([]wire.BatchStmt{{SQL: "INSERT INTO t VALUES (1)"}})
			return err
		}},
		{wire.OpScanOpen, func(s *Session) error { _, err := s.Query("SELECT * FROM t"); return err }},
		{wire.OpScanNext, func(s *Session) error {
			// The open was answered OK with an empty, not-done page, so the
			// first Next has to fetch.
			r := &Rows{s: s, id: 1}
			r.Next()
			return r.Err()
		}},
		{wire.OpCommit, (*Session).Commit},
	}
	codes := []wire.Code{wire.CodeConflict, wire.CodeBusy, wire.CodeBadRequest, wire.CodeClosed}
	for _, o := range ops {
		for _, code := range codes {
			for _, inTxn := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/inTxn=%v", o.op, code, inTxn), func(t *testing.T) {
					fs := newFakeServer(t, func(op wire.Op) wire.Code {
						if op == o.op {
							return code
						}
						return wire.CodeOK
					})
					c := fs.client(t, nil)
					s, err := c.Session()
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if inTxn {
						// The transaction is open on the server once a statement
						// has carried the BEGIN there: one of another opcode than
						// the scripted one.
						open := func() error { _, err := s.Exec("SELECT 1"); return err }
						if o.op == wire.OpExec {
							open = func() error { _, err := (&Stmt{s: s, id: 1}).Exec(); return err }
						}
						if err := s.Begin(); err != nil {
							t.Fatal(err)
						}
						if err := open(); err != nil {
							t.Fatal(err)
						}
					}
					err = o.send(s)
					var we *wire.Error
					if !errors.As(err, &we) || we.Code != code {
						t.Fatalf("want the scripted %s, got %v", code, err)
					}
					want := 1
					if o.op.Retry().Allows(code, inTxn) {
						want = 1 + c.opts.MaxRetries
					}
					if got := fs.count(o.op); got != want {
						t.Fatalf("%d attempts, want %d", got, want)
					}
				})
			}
		}
	}
}

// TestBeginRidesFirstStatement pins the client half of BEGIN-on-the-first-
// statement against the scripted server: what is sent, what carries the
// flag, and what a failure of the carrying statement leaves behind.
func TestBeginRidesFirstStatement(t *testing.T) {
	session := func(t *testing.T, script func(op wire.Op) wire.Code) (*fakeServer, *Client, *Session) {
		fs := newFakeServer(t, script)
		c := fs.client(t, nil)
		s, err := c.Session()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if err := s.Begin(); err != nil || !s.InTxn() {
			t.Fatalf("Begin: %v, InTxn %v", err, s.InTxn())
		}
		return fs, c, s
	}
	exec := func(s *Session) error { _, err := s.Exec("INSERT INTO t VALUES (1)"); return err }
	prepared := func(s *Session) error { _, err := (&Stmt{s: s, id: 1}).Exec(); return err }

	t.Run("nothing between", func(t *testing.T) {
		for name, end := range map[string]func(*Session) error{
			"commit":   (*Session).Commit,
			"rollback": (*Session).Rollback,
			"close":    func(s *Session) error { s.Close(); return nil },
			"COMMIT":   func(s *Session) error { _, err := s.Exec("commit;"); return err },
		} {
			fs, c, s := session(t, allOK)
			if err := end(s); err != nil || s.InTxn() {
				t.Fatalf("%s: %v, InTxn %v", name, err, s.InTxn())
			}
			if err := c.Ping(); err != nil { // the connection went back to the pool, clean
				t.Fatal(err)
			}
			if n, p := fs.frames(), fs.count(wire.OpPing); n != 1 || p != 1 {
				t.Fatalf("%s: %d frames (%d pings), want the ping alone", name, n, p)
			}
		}
	})

	t.Run("one frame", func(t *testing.T) {
		for _, stmt := range []func(*Session) error{exec, prepared} {
			fs, _, s := session(t, allOK)
			for i := 0; i < 3; i++ {
				if err := stmt(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if got, want := fs.stmtFlags(), []uint64{wire.FlagBegin, 0, 0}; !reflect.DeepEqual(got, want) {
				t.Fatalf("statement flags %v, want %v", got, want)
			}
			if n := fs.frames(); n != 4 || fs.count(wire.OpBegin) != 0 {
				t.Fatalf("%d frames, %d begins: want 3 statements and the commit", n, fs.count(wire.OpBegin))
			}
		}
	})

	// A failed carrier: reissued only for an admission refusal, and unless the
	// failure ended the transaction the next statement carries the flag again.
	for _, c := range []struct {
		code     wire.Code
		attempts int
		inTxn    bool
	}{
		{wire.CodeBusy, 4, true},
		{wire.CodeBadRequest, 1, true},
		{wire.CodeConflict, 1, false},
		{wire.CodeDuplicate, 1, false},
	} {
		t.Run("carrier answered "+c.code.String(), func(t *testing.T) {
			var mu sync.Mutex
			failing := true
			fs, _, s := session(t, func(op wire.Op) wire.Code {
				mu.Lock()
				defer mu.Unlock()
				if op == wire.OpExec && failing {
					return c.code
				}
				return wire.CodeOK
			})
			if err := exec(s); wire.CodeOf(err) != c.code {
				t.Fatalf("want the scripted %s, got %v", c.code, err)
			}
			if got := fs.count(wire.OpExec); got != c.attempts {
				t.Fatalf("%d attempts, want %d", got, c.attempts)
			}
			if s.InTxn() != c.inTxn {
				t.Fatalf("InTxn = %v after %s", s.InTxn(), c.code)
			}
			mu.Lock()
			failing = false
			mu.Unlock()
			if err := exec(s); err != nil {
				t.Fatal(err)
			}
			if err := exec(s); err != nil {
				t.Fatal(err)
			}
			flags := fs.stmtFlags()
			for i, f := range flags[:c.attempts] {
				if f != wire.FlagBegin {
					t.Fatalf("attempt %d carried flags %#x", i, f)
				}
			}
			var again uint64 // the transaction is over: the next statement is autocommit
			if c.inTxn {
				again = wire.FlagBegin
			}
			if got, want := flags[c.attempts:], []uint64{again, 0}; !reflect.DeepEqual(got, want) {
				t.Fatalf("flags after the failure %v, want %v", got, want)
			}
			if fs.count(wire.OpBegin) != 0 {
				t.Fatal("an explicit begin was sent")
			}
		})
	}

	t.Run("carrier lost with its connection", func(t *testing.T) {
		fs, _, s := session(t, allOK)
		fs.set(func(fs *fakeServer) {
			fs.handle = func(fc *fakeConn, f wire.Frame) { fc.nc.Close() }
		})
		if err := exec(s); err == nil || wire.CodeOf(err) != wire.CodeOK {
			t.Fatalf("want an I/O error, got %v", err)
		}
		if s.InTxn() || s.w.healthy() {
			t.Fatalf("InTxn %v on a connection healthy %v after losing it", s.InTxn(), s.w.healthy())
		}
		if got := fs.count(wire.OpExec); got != 1 {
			t.Fatalf("%d attempts at a statement whose outcome is unknown", got)
		}
	})

	t.Run("any other opcode is preceded by an explicit begin", func(t *testing.T) {
		for name, send := range map[string]func(*Session) error{
			"ping":       (*Session).Ping,
			"prepare":    func(s *Session) error { _, err := s.Prepare("SELECT 1"); return err },
			"exec_batch": func(s *Session) error { _, err := s.ExecBatch([]wire.BatchStmt{{SQL: "X"}}); return err },
			"begin":      (*Session).Begin,
		} {
			fs, _, s := session(t, allOK)
			if err := send(s); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := 1
			if name == "begin" {
				want = 2 // a Begin inside a transaction is the server's to judge
			}
			if got := fs.count(wire.OpBegin); got != want || fs.frames() != 2 {
				t.Fatalf("%s: %d explicit begins among %d frames, want %d of 2", name, got, fs.frames(), want)
			}
			if s.InTxn() {
				if err := exec(s); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range fs.stmtFlags() {
				if f != 0 {
					t.Fatalf("%s: a statement carried flags %#x after the explicit begin", name, f)
				}
			}
		}
	})

	t.Run("a refused explicit begin fails the call, not the transaction", func(t *testing.T) {
		fs, _, s := session(t, func(op wire.Op) wire.Code {
			if op == wire.OpBegin {
				return wire.CodeBusy
			}
			return wire.CodeOK
		})
		if err := s.Ping(); wire.CodeOf(err) != wire.CodeBusy || !errors.Is(err, wire.ErrServerBusy) {
			t.Fatalf("want the begin's refusal, got %v", err)
		}
		if got := fs.count(wire.OpBegin); got != 4 || fs.count(wire.OpPing) != 0 {
			t.Fatalf("%d begins, %d pings: want the begin retried and the ping never sent", got, fs.count(wire.OpPing))
		}
		if !s.InTxn() {
			t.Fatal("the refusal ended the client-side transaction")
		}
	})
}

// TestScanNextRetriesBusyOnly pins the one class the matrix above derives
// from the table rather than states: a page fetch rides out an admission
// refusal and nothing else, because anything later may have consumed rows.
func TestScanNextRetriesBusyOnly(t *testing.T) {
	for code, want := range map[wire.Code]int{wire.CodeBusy: 4, wire.CodeConflict: 1, wire.CodeCursorGone: 1} {
		fs := newFakeServer(t, func(op wire.Op) wire.Code {
			if op == wire.OpScanNext {
				return code
			}
			return wire.CodeOK
		})
		s, err := fs.client(t, nil).Session()
		if err != nil {
			t.Fatal(err)
		}
		rows, err := s.Query("SELECT * FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if rows.Next() || wire.CodeOf(rows.Err()) != code {
			t.Fatalf("%s: Next succeeded or failed otherwise: %v", code, rows.Err())
		}
		if got := fs.count(wire.OpScanNext); got != want {
			t.Fatalf("%s: %d scan_next attempts, want %d", code, got, want)
		}
		// The failed stream closed its cursor (best effort) and left nothing
		// for Session.Close to release.
		if got := fs.count(wire.OpScanClose); got != 1 || len(s.rows) != 0 {
			t.Fatalf("%s: %d scan_close sent, %d cursors still tracked", code, got, len(s.rows))
		}
		s.Close()
	}
}

// TestPoolExhaustionIsBusy: a full pool is an admission refusal like the
// server's -- CodeBusy from Session, ridden out (then surfaced) by the
// Client-level calls -- and costs the server nothing.
func TestPoolExhaustionIsBusy(t *testing.T) {
	fs := newFakeServer(t, allOK)
	c := fs.client(t, func(o *Options) {
		o.PoolSize = 1
		o.RequestTimeout = 5 * time.Millisecond
	})
	held, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session(); wire.CodeOf(err) != wire.CodeBusy || !errors.Is(err, wire.ErrServerBusy) {
		t.Fatalf("exhausted pool: want CodeBusy, got %v", err)
	}
	t0 := time.Now()
	if err := c.Ping(); wire.CodeOf(err) != wire.CodeBusy {
		t.Fatalf("Ping on an exhausted pool: want CodeBusy, got %v", err)
	}
	if waited := time.Since(t0); waited < 4*c.opts.RequestTimeout {
		t.Fatalf("Ping gave up after %v: it did not retry the lease %d times", waited, c.opts.MaxRetries)
	}
	if n := fs.count(wire.OpPing); n != 0 {
		t.Fatalf("%d pings reached the server without a session", n)
	}
	held.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after the pool freed up: %v", err)
	}
}

// --- the caller-driven connection ------------------------------------------

func affected(n int) []byte { return wire.AppendEncodedResultCSN(nil, n, nil, 0, nil, 0) }

// TestResponseNotInFlightFailsTheConnection: a connection has one request in
// flight, so a response to any other fails the call with wire.ErrProtocol and
// the connection with it; the connection is not pooled, and the next lease
// dials.
func TestResponseNotInFlightFailsTheConnection(t *testing.T) {
	fs := newFakeServer(t, nil)
	fs.set(func(fs *fakeServer) {
		fs.handle = func(fc *fakeConn, f wire.Frame) {
			id := f.RequestID
			if f.Op == wire.OpStats {
				id += 100
			}
			fc.reply(id, wire.CodeOK, nil)
		}
	})
	c := fs.client(t, nil)
	s, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stats(); !errors.Is(err, wire.ErrProtocol) {
		t.Fatalf("a response to a request not in flight: got %v, want %v", err, wire.ErrProtocol)
	}
	if s.w.healthy() {
		t.Fatal("the connection survived a response to a request not in flight")
	}
	s.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	accepts := fs.accepts
	fs.mu.Unlock()
	if accepts != 2 {
		t.Fatalf("%d connections accepted, want the failed one and a fresh one", accepts)
	}
}

// TestFailedCloseDiscardsTheConnection: Session.Close closes each open
// statement and cursor with a request of its own; when one of them fails the
// connection may still hold server-side state, so it is discarded, not
// pooled.
func TestFailedCloseDiscardsTheConnection(t *testing.T) {
	fs := newFakeServer(t, func(op wire.Op) wire.Code {
		if op == wire.OpScanClose {
			return wire.CodeInternal
		}
		return wire.CodeOK
	})
	c := fs.client(t, nil)
	s, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if fs.count(wire.OpCloseStmt) != 1 || fs.count(wire.OpScanClose) != 1 {
		t.Fatalf("closed %d statements and %d cursors, want 1 and 1", fs.count(wire.OpCloseStmt), fs.count(wire.OpScanClose))
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	accepts := fs.accepts
	fs.mu.Unlock()
	if accepts != 2 {
		t.Fatalf("%d connections accepted: a connection whose cleanup failed was pooled", accepts)
	}
}

// TestResponseTimeoutFailsTheConnection: a response that does not arrive
// within RequestTimeout fails the connection (request ids cannot be resynced
// once one is abandoned), the failure is sticky, and the next lease dials.
func TestResponseTimeoutFailsTheConnection(t *testing.T) {
	fs := newFakeServer(t, nil)
	fs.set(func(fs *fakeServer) {
		fs.handle = func(fc *fakeConn, f wire.Frame) {
			if f.Op != wire.OpStats { // stats is never answered
				fc.reply(f.RequestID, wire.CodeOK, nil)
			}
		}
	})
	c := fs.client(t, func(o *Options) { o.RequestTimeout = 40 * time.Millisecond })
	s, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ping(); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err = s.Stats()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a timeout, got %v", err)
	}
	// Never early, at most a quarter of the budget late (plus scheduling).
	if d := time.Since(t0); d < c.opts.RequestTimeout || d > 2*c.opts.RequestTimeout {
		t.Fatalf("timed out after %v, budget %v", d, c.opts.RequestTimeout)
	}
	if s.w.healthy() {
		t.Fatal("the connection survived an abandoned response")
	}
	if err2 := s.Ping(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("the failure is not sticky: %v", err2)
	}
	s.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after the failed connection was dropped: %v", err)
	}
	fs.mu.Lock()
	accepts := fs.accepts
	fs.mu.Unlock()
	if accepts != 2 {
		t.Fatalf("%d connections accepted, want the failed one and a fresh one", accepts)
	}
}

// TestGreetingObservedBeforeFirstResponse: the greeting is read inline, ahead
// of the first response, so it is known once the first call returns.
func TestGreetingObservedBeforeFirstResponse(t *testing.T) {
	fs := newFakeServer(t, allOK)
	fs.set(func(fs *fakeServer) { fs.epoch = 7 })
	c := fs.client(t, nil)
	if c.Greeting() != nil {
		t.Fatal("a greeting before any connection")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	g := c.Greeting()
	if g == nil || g.Role != wire.RolePrimary || g.Epoch != 7 || c.maxEpoch.Load() != 7 {
		t.Fatalf("greeting after the first round trip: %+v (max epoch %d)", g, c.maxEpoch.Load())
	}
}

// TestResultSurvivesNextCall: a response is decoded straight out of the
// connection's receive arena, which no later call rewrites; nothing a caller
// was handed changes under it.
func TestResultSurvivesNextCall(t *testing.T) {
	fs := newFakeServer(t, allOK)
	fs.set(func(fs *fakeServer) {
		fs.body = func(f wire.Frame) []byte {
			tag := fmt.Sprintf("row-of-request-%d", f.RequestID)
			return wire.AppendResult(nil, &wire.Result{
				Columns: []string{"c" + tag},
				Rows:    []core.Row{{core.S(tag), core.B([]byte(tag))}},
			})
		}
	})
	s, err := fs.client(t, nil).Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.Exec("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	snapshot := fmt.Sprintf("%v %v", first.Columns, first.Rows)
	second, err := s.Exec("SELECT 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%v %v", first.Columns, first.Rows); got != snapshot {
		t.Fatalf("the first result changed under later calls:\n was %s\n now %s", snapshot, got)
	}
	for i, res := range []*wire.Result{first, second} {
		if want := fmt.Sprintf("row-of-request-%d", i+1); res.Rows[0][0].Str() != want || string(res.Rows[0][1].Bytes()) != want {
			t.Fatalf("result %d holds %v, want %s", i+1, res.Rows, want)
		}
	}
}

// TestStmtColumnsFollowTheServer: a prepared statement's results share one
// column slice while the names stay the same, and carry the server's new
// names -- not the slice the statement kept -- once a schema change renames
// them; the results handed out before keep the names they had.
func TestStmtColumnsFollowTheServer(t *testing.T) {
	fs := newFakeServer(t, allOK)
	var mu sync.Mutex
	names := []string{"id", "name"}
	fs.set(func(fs *fakeServer) {
		fs.body = func(f wire.Frame) []byte {
			if f.Op == wire.OpPrepare {
				return wire.EncodePrepareResult(1, 0)
			}
			mu.Lock()
			defer mu.Unlock()
			return wire.AppendEncodedResultCSN(nil, 0, names, 0, nil, 0)
		}
	})
	s, err := fs.client(t, nil).Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Prepare("SELECT id, name FROM t")
	if err != nil {
		t.Fatal(err)
	}
	exec := func() []string {
		t.Helper()
		res, err := st.Exec()
		if err != nil {
			t.Fatal(err)
		}
		return res.Columns
	}
	first, second := exec(), exec()
	if !reflect.DeepEqual(second, []string{"id", "name"}) || &first[0] != &second[0] {
		t.Fatalf("same names: %v then %v, shared %v", first, second, &first[0] == &second[0])
	}
	mu.Lock()
	names = []string{"id", "label"}
	mu.Unlock()
	renamed := exec()
	if !reflect.DeepEqual(renamed, []string{"id", "label"}) {
		t.Fatalf("after the rename the statement returns %v", renamed)
	}
	if !reflect.DeepEqual(first, []string{"id", "name"}) {
		t.Fatalf("an earlier result's columns changed to %v", first)
	}
	if again := exec(); &again[0] != &renamed[0] {
		t.Fatal("the renamed columns are not reused by the next result")
	}
}
