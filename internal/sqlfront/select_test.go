package sqlfront

import (
	"fmt"
	"strings"
	"testing"

	"hiengine/internal/core"
	"hiengine/internal/raceflag"
)

// TestUnknownProjectionFailsAtCompile is the silent-bad-statement
// regression: a projection naming no column used to be checked per row, so
// it passed Prepare, and passed Exec whenever no row matched.
func TestUnknownProjectionFailsAtCompile(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE bp (a INT, b INT, PRIMARY KEY(a))")
	const bad = "SELECT nosuch FROM bp WHERE a = ?"
	want := `unknown column "nosuch"`
	// Empty table: no row ever reaches the projection.
	if _, err := s.Exec(bad, core.I(1)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("exec over an empty table: %v", err)
	}
	if _, err := s.Prepare(bad); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("prepare: %v", err)
	}
	if _, err := s.ExecStream(bad, core.I(1)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("stream open: %v", err)
	}
	if _, err := s.Exec("SELECT a, nosuch FROM bp"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("scan form: %v", err)
	}
	// A failed compile is not cached: the statement works once it is valid.
	mustExec(t, s, "INSERT INTO bp VALUES (1, 2)")
	if res := mustExec(t, s, "SELECT b FROM bp WHERE a = ?", core.I(1)); len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("valid projection: %+v", res.Rows)
	}
}

// TestExecStreamUsesPlanCache: opening a stream resolves its plan through
// the cache instead of re-parsing the SQL each time.
func TestExecStreamUsesPlanCache(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE pc (a INT, PRIMARY KEY(a))")
	mustExec(t, s, "INSERT INTO pc VALUES (1)")
	before := f.PlanCacheStats()
	for i := 0; i < 3; i++ {
		rs, err := s.ExecStream("SELECT a FROM pc")
		if err != nil {
			t.Fatal(err)
		}
		if page, done, err := rs.Next(10); err != nil || !done || len(page.Rows) != 1 {
			t.Fatalf("page: %+v done=%v err=%v", page, done, err)
		}
	}
	after := f.PlanCacheStats()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != 2 {
		t.Fatalf("three opens of one text: %d misses, %d hits, want 1 and 2", misses, hits)
	}
}

func loadScanTable(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE scanb (grp INT, id INT, k INT, c TEXT, PRIMARY KEY(grp, id))")
	for g := int64(0); g < 3; g++ {
		for i := int64(0); i < 100; i++ {
			mustExec(t, s, "INSERT INTO scanb VALUES (?, ?, ?, ?)", core.I(g), core.I(i), core.I(i*7), core.S(fmt.Sprintf("%d:%098d", g, i)))
		}
	}
}

// TestSelectWireSinkAllocs is the scan allocation regression: a 100-row
// SELECT over a real engine into the wire sink stays encoded end to end --
// no Value, no per-row slice -- so it costs a fixed handful of allocations,
// not several per row.
func TestSelectWireSinkAllocs(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	loadScanTable(t, s)
	st, err := s.Prepare("SELECT id, c FROM scanb WHERE grp = ?")
	if err != nil {
		t.Fatal(err)
	}
	sink := RowBuf{Data: make([]byte, 0, 16<<10)}
	args := []core.Value{core.I(1)}
	avg := testing.AllocsPerRun(50, func() {
		sink = RowBuf{Data: sink.Data[:0]}
		if _, err := st.ExecEncoded(&sink, args...); err != nil {
			t.Fatal(err)
		}
	})
	if sink.N != 100 {
		t.Fatalf("scan produced %d rows", sink.N)
	}
	if avg > 16 && !raceflag.Enabled {
		t.Fatalf("100-row SELECT into the wire sink allocates %.1f times, want <= 16", avg)
	}
	// The sink holds exactly what encoding the in-process result would.
	res, err := st.Exec(args...)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, row := range res.Rows {
		want = core.EncodeRow(want, row)
	}
	if string(sink.Data) != string(want) {
		t.Fatal("wire sink bytes differ from the encoded in-process rows")
	}
}

// TestInTxnPointSelectAllocs: a prepared point SELECT inside an open
// transaction, run through ExecEncoded as the server runs it, allocates
// nothing -- its callback is the session's, bound once, and so is its
// Result, valid until the next statement.
func TestInTxnPointSelectAllocs(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE pt (id INT, k INT, c TEXT, PRIMARY KEY(id))")
	mustExec(t, s, "INSERT INTO pt VALUES (1, 10, 'one')")
	st, err := s.Prepare("SELECT k, c FROM pt WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.Rollback()
	sink := RowBuf{Data: make([]byte, 0, 256)}
	args := []core.Value{core.I(1)}
	var res *Result
	avg := testing.AllocsPerRun(100, func() {
		sink = RowBuf{Data: sink.Data[:0]}
		if res, err = st.ExecEncoded(&sink, args...); err != nil {
			t.Fatal(err)
		}
	})
	if sink.N != 1 || len(res.Columns) != 2 || res.Columns[0] != "k" || res.Columns[1] != "c" {
		t.Fatalf("point select: %d rows, columns %v", sink.N, res.Columns)
	}
	if avg != 0 && !raceflag.Enabled {
		t.Fatalf("in-transaction point SELECT through ExecEncoded allocates %.2f times, want 0", avg)
	}
	again, err := st.ExecEncoded(&sink, args...)
	if err != nil || again != res {
		t.Fatalf("the Result of an ExecEncoded SELECT is not the session's: %p then %p, err %v", res, again, err)
	}
}

// TestResultRowsSurviveReuseAndCompaction is the aliasing contract on the
// in-process side: Result.Rows own their bytes. They are decoded out of the
// session's reused scratch, whose rows were spliced out of version
// payloads; later statements on the session and a full log compaction
// (which rewrites and drops the segments those payloads lived in) must not
// change a retained result.
func TestResultRowsSurviveReuseAndCompaction(t *testing.T) {
	f, e := testFrontend(t)
	s := f.NewSession(0)
	loadScanTable(t, s)
	kept := mustExec(t, s, "SELECT id, c FROM scanb WHERE grp = ?", core.I(1))
	point := mustExec(t, s, "SELECT c FROM scanb WHERE grp = 2 AND id = 5")
	for i := 0; i < 5; i++ {
		mustExec(t, s, "SELECT id, c FROM scanb WHERE grp = ?", core.I(0)) // same scratch, other bytes
		mustExec(t, s, "UPDATE scanb SET c = 'overwritten' WHERE grp = 1 AND id = ?", core.I(int64(i)))
	}
	if _, err := e.CompactFull(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "SELECT * FROM scanb WHERE grp = ?", core.I(2))
	if len(kept.Rows) != 100 {
		t.Fatalf("kept %d rows", len(kept.Rows))
	}
	for i, row := range kept.Rows {
		if want := fmt.Sprintf("1:%098d", i); row[0].Int() != int64(i) || row[1].Str() != want {
			t.Fatalf("retained row %d changed: %v", i, row)
		}
	}
	if want := fmt.Sprintf("2:%098d", 5); len(point.Rows) != 1 || point.Rows[0][0].Str() != want {
		t.Fatalf("retained point row changed: %v", point.Rows)
	}
}

// TestStreamPageBounds pins NextPage's two bounds and its done protocol,
// which the server's cursor pages are built on.
func TestStreamPageBounds(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	loadScanTable(t, s)
	rs, err := s.ExecStream("SELECT id, c FROM scanb WHERE grp = ?", core.I(1))
	if err != nil {
		t.Fatal(err)
	}
	var page RowBuf
	// Row bound.
	if done, err := rs.NextPage(&page, 32, 0); done || err != nil || page.N != 32 {
		t.Fatalf("row-bounded page: n=%d done=%v err=%v", page.N, done, err)
	}
	// Byte bound: the page stops at the first row that reaches it.
	page = RowBuf{Data: page.Data[:0]}
	if done, err := rs.NextPage(&page, 1000, 250); done || err != nil || page.N != 3 {
		t.Fatalf("byte-bounded page: n=%d (%d bytes) done=%v err=%v", page.N, len(page.Data), done, err)
	}
	// The rest, exactly: a full page is not yet "done"...
	page = RowBuf{Data: page.Data[:0]}
	if done, err := rs.NextPage(&page, 65, 0); done || err != nil || page.N != 65 {
		t.Fatalf("last full page: n=%d done=%v err=%v", page.N, done, err)
	}
	rows, _, err := core.DecodeRows(page.Data, page.N)
	if err != nil || rows[64][0].Int() != 99 {
		t.Fatalf("last row: %v %v", rows[64], err)
	}
	// ...the empty page after it is.
	page = RowBuf{Data: page.Data[:0]}
	if done, err := rs.NextPage(&page, 65, 0); !done || err != nil || page.N != 0 {
		t.Fatalf("terminal page: n=%d done=%v err=%v", page.N, done, err)
	}
	if done, err := rs.NextPage(&page, 1, 0); !done || err != nil {
		t.Fatalf("after exhaustion: done=%v err=%v", done, err)
	}
}
