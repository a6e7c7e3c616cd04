package sqlfront

import (
	"errors"
	"fmt"
	"testing"

	"hiengine/internal/baseline/innosim"
	"hiengine/internal/baseline/memocc"
	"hiengine/internal/core"
	"hiengine/internal/raceflag"
	"hiengine/internal/srss"
)

// next decodes the stream's next page of at most max rows; done says it is
// the last, and err the stream's terminal status.
func (rs *RowStream) next(max int) (page *Result, done bool, err error) {
	var buf RowBuf
	page = &Result{Columns: rs.Columns}
	if done, err = rs.NextPage(&buf, max, 0); err != nil {
		return page, true, err
	}
	page.Rows, _, err = core.DecodeRows(nil, buf.Data, buf.N)
	return page, done, err
}

func TestExecStreamBasic(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE st (a INT, b TEXT, PRIMARY KEY(a))")
	for i := int64(0); i < 100; i++ {
		mustExec(t, s, "INSERT INTO st VALUES (?, 'v')", core.I(i))
	}
	rs, err := s.ExecStream("SELECT a FROM st")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		row, ok, err := rs.NextRow()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got := row[0].Int(); got != int64(n) {
			t.Fatalf("row %d: got key %d", n, got)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("streamed %d rows, want 100", n)
	}
	// NextRow after exhaustion stays terminal.
	if _, ok, err := rs.NextRow(); ok || err != nil {
		t.Fatalf("post-exhaustion NextRow: ok=%v err=%v", ok, err)
	}
	// Close after exhaustion is a no-op returning the terminal status.
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestExecStreamPages(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE pg (a INT, PRIMARY KEY(a))")
	for i := int64(0); i < 25; i++ {
		mustExec(t, s, "INSERT INTO pg VALUES (?)", core.I(i))
	}
	rs, err := s.ExecStream("SELECT * FROM pg")
	if err != nil {
		t.Fatal(err)
	}
	total, pages := 0, 0
	for {
		page, done, err := rs.next(10)
		if err != nil {
			t.Fatal(err)
		}
		total += len(page.Rows)
		pages++
		if len(page.Rows) > 10 {
			t.Fatalf("page of %d rows exceeds max 10", len(page.Rows))
		}
		if done {
			break
		}
	}
	if total != 25 {
		t.Fatalf("streamed %d rows, want 25", total)
	}
	if pages < 3 {
		t.Fatalf("expected >= 3 pages, got %d", pages)
	}
}

func TestExecStreamEarlyClose(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE ec (a INT, PRIMARY KEY(a))")
	for i := int64(0); i < 50; i++ {
		mustExec(t, s, "INSERT INTO ec VALUES (?)", core.I(i))
	}
	rs, err := s.ExecStream("SELECT * FROM ec")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rs.NextRow(); !ok || err != nil {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal("second close:", err)
	}
	// The session is fully usable afterwards: the stream's transaction
	// unwound cleanly.
	res := mustExec(t, s, "SELECT * FROM ec WHERE a = 7")
	if len(res.Rows) != 1 {
		t.Fatalf("post-close select: %d rows", len(res.Rows))
	}
}

func TestExecStreamSnapshotIsolation(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE si (a INT, PRIMARY KEY(a))")
	for i := int64(0); i < 20; i++ {
		mustExec(t, s, "INSERT INTO si VALUES (?)", core.I(i))
	}
	rs, err := s.ExecStream("SELECT * FROM si")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	// Writes committed after the open (by a different worker) must be
	// invisible to the pinned snapshot.
	w := f.NewSession(1)
	for i := int64(20); i < 40; i++ {
		mustExec(t, w, "INSERT INTO si VALUES (?)", core.I(i))
	}
	n := 0
	for {
		_, ok, err := rs.NextRow()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 20 {
		t.Fatalf("snapshot saw %d rows, want the 20 committed before open", n)
	}
}

func TestExecStreamRefusals(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE rf (a INT, b INT, PRIMARY KEY(a))")

	// Only SELECT streams.
	if _, err := s.ExecStream("INSERT INTO rf VALUES (1, 2)"); !errors.Is(err, ErrNotStreamable) {
		t.Fatalf("insert stream: %v", err)
	}
	// Open errors surface at open, never mid-stream.
	if _, err := s.ExecStream("SELECT zz FROM rf"); err == nil {
		t.Fatal("unknown projected column accepted")
	}
	if _, err := s.ExecStream("SELECT * FROM ghost"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := s.ExecStream("SELECT * FROM rf WHERE a = ?"); !errors.Is(err, ErrParamCount) {
		t.Fatalf("param count: %v", err)
	}
	// No streaming inside an explicit transaction.
	mustExec(t, s, "BEGIN")
	if _, err := s.ExecStream("SELECT * FROM rf"); err == nil {
		t.Fatal("stream inside txn accepted")
	}
	mustExec(t, s, "ROLLBACK")
}

func TestExecStreamLimit(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE sl (a INT, PRIMARY KEY(a))")
	for i := int64(0); i < 30; i++ {
		mustExec(t, s, "INSERT INTO sl VALUES (?)", core.I(i))
	}
	for _, tc := range []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM sl LIMIT 0", 0},
		{"SELECT * FROM sl LIMIT 7", 7},
		{"SELECT * FROM sl", 30},
	} {
		rs, err := s.ExecStream(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := rs.NextRow()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != tc.want {
			t.Fatalf("%q streamed %d rows, want %d", tc.sql, n, tc.want)
		}
	}
}

// TestStreamResumesOnEveryEngine: on each engine (HiEngine, innosim,
// memocc) each page resumes the scan just past the last key the one before
// visited, and LIMIT and the residual filter carry across pages. One
// RowStream serves every query, reopened in place; on HiEngine an open and
// its drain allocate nothing once it has run (its transaction begins in the
// handle the last one finished in).
func TestStreamResumesOnEveryEngine(t *testing.T) {
	f, _ := testFrontend(t)
	inno, err := innosim.New(innosim.Config{Service: srss.New(srss.Config{}), SegmentSize: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inno.Close)
	f.Register("innodb", inno)
	mem, err := memocc.New(memocc.Config{Service: srss.New(srss.Config{}), SegmentSize: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mem.Close)
	f.Register("memocc", mem)
	s := f.NewSession(0)
	var rs RowStream
	defer rs.Close()
	page := RowBuf{Data: make([]byte, 0, 1<<10)}
	drain := func(sql string, args ...core.Value) (ids []int64) {
		t.Helper()
		if err := s.OpenStream(&rs, 1, sql, args...); err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			page = RowBuf{Data: page.Data[:0]}
			if done, err = rs.NextPage(&page, 4, 0); err != nil {
				t.Fatal(err)
			}
			rows, _, err := core.DecodeRows(nil, page.Data, page.N)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				ids = append(ids, r[0].Int())
			}
		}
		return ids
	}
	for _, engine := range []string{"hiengine", "innodb", "memocc"} {
		tbl := "r" + engine
		mustExec(t, s, "CREATE TABLE "+tbl+" (grp INT, id INT, tag INT, PRIMARY KEY(grp, id)) WITH ENGINE="+engine)
		for g := int64(0); g < 3; g++ {
			for i := int64(0); i < 50; i++ {
				mustExec(t, s, "INSERT INTO "+tbl+" VALUES (?, ?, ?)", core.I(g), core.I(i), core.I(i%3))
			}
		}
		for _, q := range []struct {
			where string
			args  []core.Value
			ids   func(i int64) bool
			limit int
		}{
			{"grp = ?", []core.Value{core.I(1)}, func(int64) bool { return true }, 50},
			{"grp = ? AND tag = ?", []core.Value{core.I(1), core.I(2)}, func(i int64) bool { return i%3 == 2 }, 50},
			{"grp = ? AND tag = ? LIMIT 7", []core.Value{core.I(1), core.I(2)}, func(i int64) bool { return i%3 == 2 }, 7},
			{"grp = ? LIMIT 8", []core.Value{core.I(2)}, func(int64) bool { return true }, 8},
		} {
			var want []int64
			for i := int64(0); i < 50 && len(want) < q.limit; i++ {
				if q.ids(i) {
					want = append(want, i)
				}
			}
			got := drain("SELECT id FROM "+tbl+" WHERE "+q.where, q.args...)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, %s: streamed %v, want %v", engine, q.where, got, want)
			}
		}
	}
	args := []core.Value{core.I(1)}
	count := func() {
		if err := s.OpenStream(&rs, 1, "SELECT id FROM rhiengine WHERE grp = ?", args...); err != nil {
			t.Fatal(err)
		}
		n := 0
		for done := false; !done; n += page.N {
			page = RowBuf{Data: page.Data[:0]}
			if done, err = rs.NextPage(&page, 4, 0); err != nil {
				t.Fatal(err)
			}
		}
		if n != 50 {
			t.Fatalf("streamed %d rows, want 50", n)
		}
	}
	count()
	if avg := testing.AllocsPerRun(20, count); avg > 0 && !raceflag.Enabled {
		t.Fatalf("reopening a stream and draining 50 rows in pages of 4 allocates %.2f times, want 0", avg)
	}
}
