package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/wire"
)

// TestHostileArgsRowIsCheapToRefuse is the DoS-amplification regression,
// end to end: an exec frame whose three-byte argument row declares 2^20
// columns used to make the server allocate and zero 64 MiB before it
// noticed the row was empty. It must answer bad_request having allocated
// next to nothing.
func TestHostileArgsRowIsCheapToRefuse(t *testing.T) {
	h := newHarness(t, nil, nil)
	// Each payload ends with its (empty, one-byte) args row; swap that for
	// a row header declaring 2^20 columns and nothing after it.
	hostile := func(payload []byte) []byte {
		return append(payload[:len(payload)-1:len(payload)-1], 0x80, 0x80, 0x40)
	}
	payloads := map[wire.Op][]byte{
		wire.OpExec:      hostile(wire.AppendExec(nil, "SELECT 1", nil)),
		wire.OpExecStmt:  hostile(wire.AppendExecStmt(nil, 1, nil)),
		wire.OpScanOpen:  hostile(wire.AppendScanOpen(nil, 0, "SELECT 1", nil)),
		wire.OpExecBatch: hostile(wire.AppendExecBatch(nil, []wire.BatchStmt{{SQL: "SELECT 1"}})),
	}
	for op, payload := range payloads {
		nc, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		if f, err := wire.ReadFrame(nc, false); err != nil || f.RequestID != 0 {
			t.Fatalf("greeting frame: id=%d err=%v", f.RequestID, err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if err := wire.WriteFrame(nc, wire.Frame{RequestID: 1, Op: op, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := wire.ReadFrame(nc, false)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		runtime.ReadMemStats(&ms1)
		if code, msg, _, _ := decodeResponse(f); code != wire.CodeBadRequest {
			t.Fatalf("%v: hostile args row answered %v %q, want bad_request", op, code, msg)
		}
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%v: refusing a hostile %d-byte payload allocated %d bytes", op, len(payload), grew)
		}
		// A corrupt payload is a protocol violation: the connection is failed.
		if _, err := wire.ReadFrame(nc, false); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%v: connection survived a corrupt payload: %v", op, err)
		}
		nc.Close()
	}
}

// TestUnknownProjectionIsBadStatement: a SELECT projecting a column the
// table does not have fails at compile, as a wire.ErrBadStatement,
// through every way a statement reaches the server -- including over an
// empty table, where it used to succeed.
func TestUnknownProjectionIsBadStatement(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, nil)
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE bp (a INT, b INT, PRIMARY KEY(a))"); err != nil {
		t.Fatal(err)
	}
	const bad = "SELECT nosuch FROM bp WHERE a = ?"
	// On the client the identity is CodeBadRequest carrying the
	// ErrBadStatement text (bad_request has no single sentinel to unwrap to).
	badStatement := func(err error) bool {
		var we *wire.Error
		return errors.As(err, &we) && we.Code == wire.CodeBadRequest &&
			strings.Contains(we.Msg, wire.ErrBadStatement.Error()) && strings.Contains(we.Msg, `unknown column "nosuch"`)
	}
	if _, err := s.Exec(bad, core.I(1)); !badStatement(err) {
		t.Fatalf("exec: %v", err)
	}
	if _, err := s.Prepare(bad); !badStatement(err) {
		t.Fatalf("prepare: %v", err)
	}
	if _, err := s.Query(bad, core.I(1)); !badStatement(err) {
		t.Fatalf("cursor open: %v", err)
	}
	if _, err := s.ExecBatch([]wire.BatchStmt{{SQL: bad, Args: []core.Value{core.I(1)}}}); !badStatement(err) {
		t.Fatalf("batch: %v", err)
	}
	if got := h.srv.CursorsOpen(); got != 0 {
		t.Fatalf("refused open left %d cursors", got)
	}
}

// TestRetainedRowsSurvivePoolReuseAndCompaction is the aliasing contract
// over the wire, meant for -race: rows a client keeps from a one-shot
// result and from cursor pages own their bytes. The server splices them out
// of version payloads into pooled buffers, the client decodes them out of
// its frame reader's buffer; neither the pools' reuse by other traffic, nor
// updates, nor a full log compaction may change them.
func TestRetainedRowsSurvivePoolReuseAndCompaction(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, nil)
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE scanb (grp INT, id INT, k INT, c TEXT, PRIMARY KEY(grp, id))"); err != nil {
		t.Fatal(err)
	}
	text := func(g, i int64) string { return fmt.Sprintf("%d:%098d", g, i) }
	for g := int64(0); g < 2; g++ {
		var batch []wire.BatchStmt
		for i := int64(0); i < 100; i++ {
			batch = append(batch, wire.BatchStmt{SQL: "INSERT INTO scanb VALUES (?, ?, ?, ?)",
				Args: []core.Value{core.I(g), core.I(i), core.I(i * 3), core.S(text(g, i))}})
		}
		if _, err := s.ExecBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	const scan = "SELECT id, c FROM scanb WHERE grp = ?"
	oneShot, err := s.Exec(scan, core.I(1))
	if err != nil {
		t.Fatal(err)
	}
	s.SetFetchSize(32)
	rows, err := s.Query(scan, core.I(1))
	if err != nil {
		t.Fatal(err)
	}
	var paged []core.Row
	for rows.Next() {
		paged = append(paged, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}

	// Other traffic churns the same pools and frame buffers while the rows
	// are held: scans of another group, updates of the held group.
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws, err := cl.Session()
			if err != nil {
				t.Error(err)
				return
			}
			defer ws.Close()
			for i := 0; i < 40; i++ {
				if _, err := ws.Exec(scan, core.I(0)); err != nil {
					t.Error(err)
					return
				}
				if _, err := ws.Exec("UPDATE scanb SET c = 'overwritten' WHERE grp = 1 AND id = ?", core.I(int64(w*30+i%30))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := h.engine.CompactFull(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(scan, core.I(0)); err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string][]core.Row{"one-shot": oneShot.Rows, "cursor": paged} {
		if len(got) != 100 {
			t.Fatalf("%s: kept %d rows", name, len(got))
		}
		for i, row := range got {
			if len(row) != 2 || row[0].Int() != int64(i) || row[1].Str() != text(1, int64(i)) {
				t.Fatalf("%s: retained row %d changed: %v", name, i, row)
			}
		}
	}
}
