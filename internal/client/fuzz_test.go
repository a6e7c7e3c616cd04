package client

import (
	"bytes"
	"errors"
	"net"
	"strings"
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
// the connection still in step, or fails the connection for good. Every
// Value taken out of a result or a cursor row stays as it was read after
// each later frame: a response lands in the receive arena, which is never
// rewritten.
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
	// The receive arena's edges: responses whose payloads fill a chunk
	// exactly, then one that spills past a chunk's end, then one over a
	// quarter chunk, which is allocated on its own.
	f.Add(arenaEdge(f, greeting, batch, 0))
	f.Add(arenaEdge(f, greeting, batch, 1))
	f.Add(cat(greeting, frame(1, wire.CodeOK, nil), frame(2, wire.CodeOK, textResult(wire.RecvChunk/4+1)),
		frame(3, wire.CodeOK, page), frame(4, wire.CodeOK, batch)))

	f.Fuzz(func(t *testing.T, stream []byte) {
		c, err := New(Options{Addr: "fuzz", MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		w := newWconn(c, &scriptConn{r: bytes.NewReader(stream)})
		s := &Session{c: c, w: w}

		// kept holds every Value read so far, want a copy of each.
		var kept, want []core.Value
		keep := func(rows []core.Row) {
			for _, row := range rows {
				for _, v := range row {
					kept, want = append(kept, v), append(want, v.Clone())
				}
			}
		}
		unchanged := func() {
			for i := range kept {
				if !kept[i].Equal(want[i]) || kept[i].Kind() != want[i].Kind() {
					t.Fatalf("value %d read %.60v, now reads %.60v", i, want[i], kept[i])
				}
			}
		}

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
			func() error {
				res, err := s.Exec("SELECT k, v FROM t")
				if err == nil {
					keep(res.Rows)
				}
				return err
			},
			func() error {
				rows, err := s.Query("SELECT k FROM t")
				if err != nil {
					return err
				}
				for rows.Next() {
					unchanged()
					keep([]core.Row{rows.Row()})
				}
				return rows.Close()
			},
			func() error { _, err := s.ExecBatch([]wire.BatchStmt{{SQL: "X"}}); return err },
		}
		for _, step := range steps {
			err := step()
			unchanged()
			if !check(err) {
				return
			}
		}
	})
}

// textResult is a one-row Result body whose payload, behind a response's
// code and empty message, is n bytes long.
func textResult(n int) []byte {
	body := func(w int) []byte {
		return wire.AppendResult(nil, &wire.Result{Columns: []string{"v"}, Rows: []core.Row{{core.S(strings.Repeat("r", w))}}})
	}
	for w := n; w >= 0; w-- {
		if b := body(w); len(b)+3 == n {
			return b
		}
	}
	panic("no width fits")
}

// arenaEdge is an in-order answer to the fuzz target's calls -- the
// greeting, the ping, a TEXT result, cursor pages until the receive arena's
// first chunk is full, then the last page and the batch -- whose payloads
// reach the chunk's end plus over bytes exactly at one page: over 0 fills
// the chunk, over 1 spills that page into a new one.
func arenaEdge(tb testing.TB, greeting, batch []byte, over int) []byte {
	frame := func(id uint64, body []byte) []byte {
		return wire.AppendResponseFrame(nil, id, nil, wire.CodeOK, "", body)
	}
	page := func(id uint64, done bool, width int) []byte {
		rows := core.EncodeRow(nil, core.Row{core.S("p")})
		rows = core.EncodeRow(rows, core.Row{core.S(strings.Repeat("q", width))})
		return frame(id, wire.AppendCursorPage(nil, 9, done, []string{"k"}, 2, rows))
	}
	const frameHead = 13 // length prefix, request id, opcode
	frames := [][]byte{greeting, frame(1, nil), frame(2, textResult(3000))}
	used := 0
	for _, fr := range frames {
		used += len(fr) - frameHead
	}
	id := uint64(3)
	for wire.RecvChunk-used > wire.RecvChunk/8 {
		fr := page(id, false, 8000)
		frames, used, id = append(frames, fr), used+len(fr)-frameHead, id+1
	}
	for w := 0; ; w++ {
		fr := page(id, false, w)
		if n := used + len(fr) - frameHead; n == wire.RecvChunk+over {
			frames = append(frames, fr)
			break
		} else if n > wire.RecvChunk+over {
			tb.Fatal("no page width reaches the chunk's edge")
		}
	}
	frames = append(frames, page(id+1, true, 10), frame(id+2, batch))
	return bytes.Join(frames, nil)
}
