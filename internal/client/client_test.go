package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/wire"
)

// fakeServer is a listener answering request frames from a script: for each
// request the script names the status code to answer with (CodeOK answers
// the opcode's canonical success body). It counts what it was sent.
type fakeServer struct {
	addr   string
	script func(op wire.Op) wire.Code

	mu   sync.Mutex
	seen map[wire.Op]int
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
			go fs.serve(nc)
		}
	}()
	return fs
}

func (fs *fakeServer) serve(nc net.Conn) {
	defer nc.Close()
	write := func(id uint64, code wire.Code, body []byte) {
		nc.Write(wire.AppendResponseFrame(nil, id, nil, code, "scripted", body))
	}
	write(0, wire.CodeOK, wire.EncodeGreeting(wire.RolePrimary, "", 0))
	fr := wire.NewFrameReader(nc, true)
	for {
		f, err := fr.Read()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.seen[f.Op]++
		fs.mu.Unlock()
		code := fs.script(f.Op)
		var body []byte
		if code == wire.CodeOK {
			switch f.Op {
			case wire.OpPrepare:
				body = wire.EncodePrepareResult(1, 0)
			case wire.OpScanOpen, wire.OpScanNext:
				body = wire.AppendCursorPage(nil, 1, false, nil, 0, nil) // an empty page, more to come
			}
		}
		write(f.RequestID, code, body)
	}
}

func (fs *fakeServer) count(op wire.Op) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.seen[op]
}

func (fs *fakeServer) client(t *testing.T, mutate func(*Options)) *Client {
	t.Helper()
	opts := Options{Addr: fs.addr, MaxRetries: 3, RetryBase: 50 * time.Microsecond, RetryMax: time.Millisecond}
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
						if err := s.Begin(); err != nil {
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
	fs := newFakeServer(t, func(wire.Op) wire.Code { return wire.CodeOK })
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
