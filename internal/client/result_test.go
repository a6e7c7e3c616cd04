package client

import (
	"fmt"
	"sync"
	"testing"

	"hiengine/internal/core"
	"hiengine/internal/raceflag"
	"hiengine/internal/wire"
)

// taggedRows answers a prepare with the next statement id and any other
// request with one row naming the request: a TEXT value and its id.
func taggedRows(fs *fakeServer) {
	var ids uint64
	fs.body = func(f wire.Frame) []byte {
		if f.Op == wire.OpPrepare {
			ids++
			return wire.EncodePrepareResult(ids, 0)
		}
		tag := fmt.Sprintf("row-of-request-%d", f.RequestID)
		return wire.AppendResult(nil, &wire.Result{
			Columns: []string{"tag", "id"},
			Rows:    []core.Row{{core.S(tag), core.I(int64(f.RequestID))}},
		})
	}
}

// TestStmtResultIsTheStatements: a prepared statement's result is its own
// until its next Exec -- two Execs return the same Result, the second's rows
// in place of the first's -- while a Value taken out of the first keeps its
// bytes, and two statements' results coexist.
func TestStmtResultIsTheStatements(t *testing.T) {
	fs := newFakeServer(t, allOK)
	fs.set(taggedRows)
	s, err := fs.client(t, nil).Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := s.Prepare("SELECT tag, id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Prepare("SELECT tag, id FROM u")
	if err != nil {
		t.Fatal(err)
	}
	exec := func(st *Stmt) (*wire.Result, string) {
		t.Helper()
		res, err := st.Exec()
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("exec: %v, %v", res, err)
		}
		return res, fmt.Sprintf("row-of-request-%d", res.Rows[0][1].Int())
	}
	first, firstTag := exec(a)
	kept := first.Rows[0][0]
	other, otherTag := exec(b)
	second, secondTag := exec(a)
	if second != first {
		t.Fatalf("two Execs of one statement returned %p and %p", first, second)
	}
	if got := second.Rows[0][0].Str(); got != secondTag || secondTag == firstTag {
		t.Fatalf("the second Exec reads %q, want %q", got, secondTag)
	}
	if kept.Str() != firstTag {
		t.Fatalf("a Value taken from the first result reads %q after the second Exec, want %q", kept.Str(), firstTag)
	}
	if got := other.Rows[0][0].Str(); other == first || got != otherTag {
		t.Fatalf("the other statement's result reads %q, want %q", got, otherTag)
	}
}

// TestStmtDecodeAllocs: a warmed prepared statement decodes a one-row
// result without allocating, for a row of ints and for a row with TEXT,
// whose value aliases the response in the connection's receive arena (a
// chunk of it every few thousand such responses; before the arena, the TEXT
// row's bytes were one allocation). The server answers from a reused
// buffer, so the count is the client's.
func TestStmtDecodeAllocs(t *testing.T) {
	fs := newFakeServer(t, allOK)
	bodies := [][]byte{
		wire.AppendEncodedResultCSN(nil, 0, []string{"k", "v"}, 1, core.EncodeRow(nil, core.Row{core.I(1), core.I(2)}), 9),
		wire.AppendEncodedResultCSN(nil, 0, []string{"k", "c"}, 1, core.EncodeRow(nil, core.Row{core.I(1), core.S("text")}), 9),
	}
	fs.set(func(fs *fakeServer) {
		var ids uint64
		var frame []byte
		fs.handle = func(fc *fakeConn, f wire.Frame) {
			var body []byte
			if f.Op == wire.OpPrepare {
				ids++
				body = wire.EncodePrepareResult(ids, 0)
			} else {
				body = bodies[f.Payload[0]-1] // the statement id, one byte
			}
			frame = wire.AppendResponseFrame(frame[:0], f.RequestID, nil, wire.CodeOK, "", body)
			fc.nc.Write(frame)
		}
	})
	s, err := fs.client(t, nil).Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, c := range []struct {
		sql  string
		want float64
	}{{"SELECT k, v FROM t WHERE k = 1", 0}, {"SELECT k, c FROM t WHERE k = 1", 0}} {
		st, err := s.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var res *wire.Result
		avg := testing.AllocsPerRun(200, func() {
			if res, err = st.Exec(); err != nil {
				t.Fatal(err)
			}
		})
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][0].Int() != 1 {
			t.Fatalf("%s: %v", c.sql, res.Rows)
		}
		if i == 1 && res.Rows[0][1].Str() != "text" {
			t.Fatalf("%s: %v", c.sql, res.Rows)
		}
		if avg != c.want && !raceflag.Enabled {
			t.Errorf("%s: a warmed Exec allocates %.2f times, want %.0f", c.sql, avg, c.want)
		}
	}
}

// TestClientExecResultOutlivesTheLease: Client.Exec leases a pooled session
// for the call alone, so its result must not share anything with that
// session. With a one-session pool, one result is read while another
// goroutine runs statements on the same session; under -race a shared
// buffer or array is a reported race, and the rows must stay as they were.
func TestClientExecResultOutlivesTheLease(t *testing.T) {
	fs := newFakeServer(t, allOK)
	fs.set(taggedRows)
	c := fs.client(t, func(o *Options) { o.PoolSize = 1 })
	first, err := c.Exec("SELECT tag, id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v", first.Rows)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := c.Exec("SELECT tag, id FROM t"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if got := fmt.Sprintf("%v", first.Rows); got != want {
			t.Fatalf("a Client.Exec result changed while its session served others: was %s, now %s", want, got)
		}
	}
	wg.Wait()
	if got := fmt.Sprintf("%v", first.Rows); got != want {
		t.Fatalf("a Client.Exec result changed after its session served others: was %s, now %s", want, got)
	}
}
