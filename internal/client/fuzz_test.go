package client

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/wire"
)

// scriptConn is a connection whose peer has already said everything it will
// ever say: reads drain a byte script and then hit end of stream, writes
// vanish. No read ever blocks, so a hang in the client's read path is a hang
// in the test.
type scriptConn struct{ r *bytes.Reader }

func (c *scriptConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzClientResponseStream feeds the client's read path whatever a server
// could put on the socket, under a fixed sequence of synchronous and
// streaming calls. The path never panics or hangs, and every call either
// returns a decoded answer, returns the server's or a decoder's error with
// the connection still in step, or fails the connection for good.
func FuzzClientResponseStream(f *testing.F) {
	frame := func(id uint64, code wire.Code, body []byte) []byte {
		return wire.AppendResponseFrame(nil, id, nil, code, "", body)
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	greeting := frame(0, wire.CodeOK, wire.EncodeGreeting(wire.RoleReplica, "10.0.0.1:7609", 4))
	result := wire.AppendResult(nil, &wire.Result{
		Columns: []string{"k", "v"},
		Rows:    []core.Row{{core.I(1), core.S("a")}, {core.I(2), core.S("bc")}},
	})
	write := wire.AppendEncodedResultCSN(nil, 3, nil, 0, nil, 300)
	page := wire.AppendCursorPage(nil, 9, true, []string{"k"}, 1, core.EncodeRow(nil, core.Row{core.I(1)}))
	more := wire.AppendCursorPage(nil, 9, false, nil, 0, nil)
	batch := wire.AppendBatchResult(nil, []int{1, 0, 128}, 300)
	tr := obs.NewTracer(obs.TracerConfig{SampleEvery: 1}).Start(99, true)
	tr.AddSpan(obs.StageFrameRead, 0, 1000)
	traced := wire.AppendResponseFrame(nil, 2, tr, wire.CodeOK, "", result)
	tr.Discard()

	// The whole call sequence answered in order, the greeting first.
	inOrder := cat(greeting, frame(1, wire.CodeOK, nil), frame(2, wire.CodeOK, result),
		frame(3, wire.CodeOK, write), frame(4, wire.CodeOK, write), frame(5, wire.CodeOK, []byte("stats")),
		frame(6, wire.CodeOK, more), frame(7, wire.CodeOK, page), frame(8, wire.CodeOK, batch))
	f.Add(inOrder)
	f.Add(inOrder[:len(inOrder)-3]) // torn mid-frame
	// A traced response, then responses out of order (a response to a request
	// not in flight fails the connection), a notice that fails the
	// connection, a response nobody is owed.
	f.Add(cat(greeting, frame(1, wire.CodeOK, nil), traced, frame(5, wire.CodeOK, nil),
		frame(4, wire.CodeOK, write), frame(3, wire.CodeConflict, nil), frame(6, wire.CodeBusy, nil)))
	f.Add(cat(frame(1, wire.CodeOK, nil), frame(0, wire.CodeClosed, nil)))
	f.Add(cat(greeting, frame(1, wire.CodeOK, nil), frame(77, wire.CodeOK, nil)))
	f.Add(cat(frame(1, wire.CodeOK, nil), frame(2, wire.CodeOK, []byte{0xff, 0xff, 0xff})))
	f.Add([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, stream []byte) {
		c, err := New(Options{Addr: "fuzz", MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		w := newWconn(c, &scriptConn{r: bytes.NewReader(stream)})
		s := &Session{c: c, w: w}

		// check judges one call's outcome and reports whether to go on.
		check := func(err error) bool {
			var we *wire.Error
			switch {
			case err == nil, errors.As(err, &we) && w.healthy(), errors.Is(err, wire.ErrProtocol) && w.healthy():
				return true
			case w.healthy():
				t.Fatalf("a call failed with %v and left the connection in use", err)
			case w.err == nil:
				t.Fatal("unhealthy without a sticky error")
			}
			if again := s.Ping(); again == nil || again.Error() != w.err.Error() {
				t.Fatalf("a failed connection answered the next call with %v, not its sticky %v", again, w.err)
			}
			return false
		}
		steps := []func() error{
			s.Ping,
			func() error { _, err := s.Exec("SELECT k, v FROM t"); return err },
			func() error {
				rows, err := s.Query("SELECT k FROM t")
				if err != nil {
					return err
				}
				for rows.Next() {
				}
				return rows.Close()
			},
			func() error { _, err := s.ExecBatch([]wire.BatchStmt{{SQL: "X"}}); return err },
		}
		for _, step := range steps {
			if !check(step()) {
				return
			}
		}
	})
}
