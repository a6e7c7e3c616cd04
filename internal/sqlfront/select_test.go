package sqlfront

import (
	"fmt"
	"strings"
	"testing"

	"hiengine/internal/adapt"
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
		if page, done, err := rs.next(10); err != nil || !done || len(page.Rows) != 1 {
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
// no Value, no per-row slice -- the engine's scan state is its worker slot's,
// and the auto-commit transaction begins in the handle the session's last
// SELECT finished in, so it allocates nothing (3 while each SELECT's
// transaction was a fresh one).
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
	if avg != 0 && !raceflag.Enabled {
		t.Fatalf("100-row SELECT into the wire sink allocates %.2f times, want 0", avg)
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

// TestStmtResultIsTheStatements: a prepared SELECT's Result is its
// statement's until the statement's next Exec -- two Execs return the same
// Result, decoded in place -- while a Value taken out of the first keeps its
// bytes, and two statements' results coexist, as do a statement's and a
// Session.Exec's.
func TestStmtResultIsTheStatements(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	loadScanTable(t, s)
	a, err := s.Prepare("SELECT id, c FROM scanb WHERE grp = ? AND id = ?")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Prepare("SELECT c FROM scanb WHERE grp = ? AND id = ?")
	if err != nil {
		t.Fatal(err)
	}
	exec := func(st *Stmt, grp, id int64) (*Result, string) {
		t.Helper()
		res, err := st.Exec(core.I(grp), core.I(id))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("exec: %v, %v", res, err)
		}
		return res, fmt.Sprintf("%d:%098d", grp, id)
	}
	first, firstText := exec(a, 1, 5)
	kept := first.Rows[0][1]
	other, otherText := exec(b, 2, 6)
	second, secondText := exec(a, 0, 7)
	if second != first {
		t.Fatalf("two Execs of one statement returned %p and %p", first, second)
	}
	if got := second.Rows[0][1].Str(); got != secondText || second.Rows[0][0].Int() != 7 {
		t.Fatalf("the second Exec reads %v, want 7 and %q", second.Rows[0], secondText)
	}
	if kept.Str() != firstText {
		t.Fatalf("a Value taken from the first result reads %q after the second Exec, want %q", kept.Str(), firstText)
	}
	if got := other.Rows[0][0].Str(); other == first || got != otherText {
		t.Fatalf("the other statement's result reads %q, want %q", got, otherText)
	}
	own := mustExec(t, s, "SELECT c FROM scanb WHERE grp = 2 AND id = 8")
	exec(a, 1, 9)
	exec(b, 0, 1)
	if got, want := own.Rows[0][0].Str(), fmt.Sprintf("%d:%098d", 2, 8); got != want {
		t.Fatalf("a Session.Exec result reads %q after later statements, want %q", got, want)
	}
}

// TestStmtDecodeAllocs: a warmed prepared point SELECT inside an open
// transaction, run through Stmt.Exec, decodes into its statement's Result
// without allocating, for a row of ints and for a row with TEXT alike: the
// TEXT value aliases the version's payload (before: one allocation, a copy
// of the row's bytes).
func TestStmtDecodeAllocs(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE pt (id INT, k INT, c TEXT, PRIMARY KEY(id))")
	mustExec(t, s, "INSERT INTO pt VALUES (1, 10, 'one')")
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.Rollback()
	args := []core.Value{core.I(1)}
	for _, sql := range []string{"SELECT id, k FROM pt WHERE id = ?", "SELECT k, c FROM pt WHERE id = ?"} {
		st, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		avg := testing.AllocsPerRun(100, func() {
			if res, err = st.Exec(args...); err != nil {
				t.Fatal(err)
			}
		})
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
			t.Fatalf("%s: %v", sql, res.Rows)
		}
		if avg != 0 && !raceflag.Enabled {
			t.Errorf("%s: a warmed Exec allocates %.2f times, want 0", sql, avg)
		}
	}
}

// TestResultRowsSurviveReuseAndCompaction is the aliasing contract on the
// in-process side: a result's TEXT values alias the version payloads they
// were read from, which are never rewritten, so a Value kept from a SELECT
// -- a Session.Exec result's, or one taken out of a Stmt's reused Result --
// reads the same after later statements on the session, the row's UPDATE,
// the GC prune of the version it was read from, a full log compaction that
// rewrites and drops the segments the payloads lived in, and all of that
// again for a row recovery left as a checkpoint image stub, whose payload a
// read loads from the log.
func TestResultRowsSurviveReuseAndCompaction(t *testing.T) {
	cfg := core.Config{Workers: 4, SegmentSize: 1 << 16, GCEveryNCommits: -1}
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	s := NewFrontend("hiengine", adapt.New(e)).NewSession(0)
	loadScanTable(t, s)
	text := func(grp, id int64) string { return fmt.Sprintf("%d:%098d", grp, id) }

	kept := mustExec(t, s, "SELECT id, c FROM scanb WHERE grp = ?", core.I(1))
	point := mustExec(t, s, "SELECT c FROM scanb WHERE grp = 2 AND id = 5")
	st, err := s.Prepare("SELECT c FROM scanb WHERE grp = ? AND id = ?")
	if err != nil {
		t.Fatal(err)
	}
	keepStmt := func(grp, id int64) core.Value {
		t.Helper()
		res, err := st.Exec(core.I(grp), core.I(id))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("stmt exec: %v, %v", res, err)
		}
		return res.Rows[0][0]
	}
	fromStmt := keepStmt(1, 0)
	for i := int64(0); i < 5; i++ {
		mustExec(t, s, "SELECT id, c FROM scanb WHERE grp = ?", core.I(0)) // same scratch, other bytes
		mustExec(t, s, "UPDATE scanb SET c = 'overwritten' WHERE grp = 1 AND id = ?", core.I(i))
		keepStmt(0, i) // the statement's Result, decoded into again
	}
	check := func(when string) {
		t.Helper()
		if len(kept.Rows) != 100 {
			t.Fatalf("%s: kept %d rows", when, len(kept.Rows))
		}
		for i, row := range kept.Rows {
			if row[0].Int() != int64(i) || row[1].Str() != text(1, int64(i)) {
				t.Fatalf("%s: retained row %d changed: %v", when, i, row)
			}
		}
		if len(point.Rows) != 1 || point.Rows[0][0].Str() != text(2, 5) {
			t.Fatalf("%s: retained point row changed: %v", when, point.Rows)
		}
		if fromStmt.Str() != text(1, 0) {
			t.Fatalf("%s: a Value taken from a statement's result reads %q", when, fromStmt.Str())
		}
	}
	check("after the updates")
	if e.RunGC() == 0 {
		t.Fatal("GC pruned no superseded version")
	}
	check("after GC")
	cs, err := e.CompactFull()
	if err != nil || cs.SegmentsDropped == 0 {
		t.Fatalf("compaction dropped no segment: %+v, %v", cs, err)
	}
	mustExec(t, s, "SELECT * FROM scanb WHERE grp = ?", core.I(2))
	check("after compaction")

	// A checkpoint, then a crash: every row comes back an image stub.
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	manifest, svc := e.ManifestID(), e.Service()
	e.Close()
	cfg.Service = svc
	if e, _, err = core.Recover(cfg, manifest, core.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	f := NewFrontend("hiengine", adapt.New(e))
	tbl, err := e.Table("scanb")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AdoptAll("hiengine", []*core.Schema{tbl.Schema}); err != nil {
		t.Fatal(err)
	}
	s = f.NewSession(0)
	if st, err = s.Prepare("SELECT c FROM scanb WHERE grp = ? AND id = ?"); err != nil {
		t.Fatal(err)
	}
	fromStub := keepStmt(2, 7)
	for i := int64(0); i < 5; i++ {
		mustExec(t, s, "UPDATE scanb SET c = 'overwritten' WHERE grp = 2 AND id = ?", core.I(7+i))
		keepStmt(2, 8+i)
	}
	if e.RunGC() == 0 {
		t.Fatal("GC pruned no superseded version after recovery")
	}
	if cs, err := e.CompactFull(); err != nil || cs.SegmentsDropped == 0 {
		t.Fatalf("compaction after recovery dropped no segment: %+v, %v", cs, err)
	}
	check("after recovery, GC and compaction")
	if fromStub.Str() != text(2, 7) {
		t.Fatalf("a Value read from an image stub reads %q after its update, GC and compaction", fromStub.Str())
	}
}

// TestAdapterResultsSurviveLaterReads is the same contract for an engine
// without raw reads (plainDB): the select core encodes each row it is handed
// decoded behind the last, never over it, so a Value kept from an in-process
// SELECT reads the same after enough later reads to fill its buffer and
// start another, and after the row's UPDATE.
func TestAdapterResultsSurviveLaterReads(t *testing.T) {
	s := plainFrontend(t).NewSession(0)
	loadScanTable(t, s)
	st, err := s.Prepare("SELECT c FROM scanb WHERE grp = ? AND id = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec(core.I(1), core.I(3))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("point select: %v, %v", res, err)
	}
	kept := res.Rows[0][0]
	scan := mustExec(t, s, "SELECT id, c FROM scanb WHERE grp = ?", core.I(2))
	for i := int64(0); i < 10; i++ { // 10 scans of ~11 KB: past the buffer's 64 KB
		mustExec(t, s, "SELECT id, c FROM scanb WHERE grp = ?", core.I(0))
		if _, err := st.Exec(core.I(0), core.I(i)); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "UPDATE scanb SET c = 'overwritten' WHERE grp = 1 AND id = 3")
	}
	if want := fmt.Sprintf("1:%098d", 3); kept.Str() != want {
		t.Fatalf("a Value kept from a statement's result reads %q, want %q", kept.Str(), want)
	}
	for i, row := range scan.Rows {
		if want := fmt.Sprintf("2:%098d", i); row[0].Int() != int64(i) || row[1].Str() != want {
			t.Fatalf("retained row %d changed: %v", i, row)
		}
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
	rows, _, err := core.DecodeRows(nil, page.Data, page.N)
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
