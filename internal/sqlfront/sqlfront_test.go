package sqlfront

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hiengine/internal/adapt"
	"hiengine/internal/baseline/innosim"
	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/raceflag"
	"hiengine/internal/srss"
)

func testFrontend(t *testing.T) (*Frontend, *core.Engine) {
	t.Helper()
	e, err := core.Open(core.Config{Workers: 16, SegmentSize: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return NewFrontend("hiengine", adapt.New(e)), e
}

func mustExec(t *testing.T, s *Session, sql string, args ...core.Value) *Result {
	t.Helper()
	res, err := s.Exec(sql, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE users (id INT, name TEXT, age INT, PRIMARY KEY(id), INDEX by_name (name))")
	mustExec(t, s, "INSERT INTO users VALUES (1, 'ada', 36)")
	mustExec(t, s, "INSERT INTO users VALUES (2, 'bob', 25)")
	res := mustExec(t, s, "SELECT * FROM users WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "ada" {
		t.Fatalf("select: %+v", res.Rows)
	}
	// Projection.
	res = mustExec(t, s, "SELECT name FROM users WHERE id = 2")
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Str() != "bob" {
		t.Fatalf("projection: %+v", res.Rows)
	}
	// Secondary index scan.
	res = mustExec(t, s, "SELECT id FROM users WHERE name = 'ada'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("secondary: %+v", res.Rows)
	}
	// Full scan.
	res = mustExec(t, s, "SELECT * FROM users")
	if len(res.Rows) != 2 {
		t.Fatalf("full scan: %d rows", len(res.Rows))
	}
	// Miss.
	res = mustExec(t, s, "SELECT * FROM users WHERE id = 99")
	if len(res.Rows) != 0 {
		t.Fatalf("miss returned rows: %+v", res.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE kv (k INT, v TEXT, PRIMARY KEY(k))")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 'one')")
	res := mustExec(t, s, "UPDATE kv SET v = 'uno' WHERE k = 1")
	if res.Affected != 1 {
		t.Fatalf("update affected %d", res.Affected)
	}
	res = mustExec(t, s, "SELECT v FROM kv WHERE k = 1")
	if res.Rows[0][0].Str() != "uno" {
		t.Fatalf("update lost: %+v", res.Rows)
	}
	res = mustExec(t, s, "UPDATE kv SET v = 'x' WHERE k = 9")
	if res.Affected != 0 {
		t.Fatal("phantom update")
	}
	res = mustExec(t, s, "DELETE FROM kv WHERE k = 1")
	if res.Affected != 1 {
		t.Fatalf("delete affected %d", res.Affected)
	}
	res = mustExec(t, s, "SELECT * FROM kv WHERE k = 1")
	if len(res.Rows) != 0 {
		t.Fatal("delete lost")
	}
}

func TestParameters(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE p (a INT, b TEXT, PRIMARY KEY(a))")
	mustExec(t, s, "INSERT INTO p VALUES (?, ?)", core.I(5), core.S("five"))
	res := mustExec(t, s, "SELECT b FROM p WHERE a = ?", core.I(5))
	if res.Rows[0][0].Str() != "five" {
		t.Fatalf("param select: %+v", res.Rows)
	}
	if _, err := s.Exec("SELECT * FROM p WHERE a = ?"); !errors.Is(err, ErrParamCount) {
		t.Fatalf("param count: %v", err)
	}
}

func TestPreparedStatements(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE c (a INT, b INT, PRIMARY KEY(a))")
	ins, err := s.Prepare("INSERT INTO c VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := s.Prepare("SELECT b FROM c WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if _, err := ins.Exec(core.I(i), core.I(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 100; i += 13 {
		res, err := sel.Exec(core.I(i))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != i*2 {
			t.Fatalf("compiled select %d: %+v %v", i, res, err)
		}
	}
}

func TestExplicitTransactions(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE t (a INT, b INT, PRIMARY KEY(a))")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10)")
	mustExec(t, s, "INSERT INTO t VALUES (2, 20)")
	if !s.InTxn() {
		t.Fatal("not in txn")
	}
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT * FROM t")
	if len(res.Rows) != 0 {
		t.Fatal("rollback leaked rows")
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (3, 30)")
	mustExec(t, s, "COMMIT")
	res = mustExec(t, s, "SELECT * FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("commit: %+v", res.Rows)
	}
	if _, err := s.Exec("COMMIT"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("commit without begin: %v", err)
	}
}

func TestMultiEngineRoutingAndCrossEngineRejection(t *testing.T) {
	f, _ := testFrontend(t)
	inno, err := innosim.New(innosim.Config{Service: srss.New(srss.Config{}), SegmentSize: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inno.Close)
	f.Register("innodb", inno)

	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE fast (a INT, b TEXT, PRIMARY KEY(a)) WITH ENGINE=hiengine")
	mustExec(t, s, "CREATE TABLE slow (a INT, b TEXT, PRIMARY KEY(a)) WITH ENGINE=innodb")
	mustExec(t, s, "INSERT INTO fast VALUES (1, 'hi')")
	mustExec(t, s, "INSERT INTO slow VALUES (1, 'inno')")
	r1 := mustExec(t, s, "SELECT b FROM fast WHERE a = 1")
	r2 := mustExec(t, s, "SELECT b FROM slow WHERE a = 1")
	if r1.Rows[0][0].Str() != "hi" || r2.Rows[0][0].Str() != "inno" {
		t.Fatalf("routing: %v %v", r1.Rows, r2.Rows)
	}
	// A transaction may not span engines (Section 3.4).
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO fast VALUES (2, 'x')")
	if _, err := s.Exec("INSERT INTO slow VALUES (2, 'y')"); !errors.Is(err, ErrCrossEngine) {
		t.Fatalf("cross-engine: %v", err)
	}
	mustExec(t, s, "ROLLBACK")
}

func TestPlannerErrors(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE t (a INT, b INT, c INT, PRIMARY KEY(a, b))")
	// UPDATE needs the full primary key.
	if _, err := s.Exec("UPDATE t SET c = 1 WHERE a = 1"); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("partial-pk update: %v", err)
	}
	// WHERE on an unindexed column.
	if _, err := s.Exec("SELECT * FROM t WHERE c = 3"); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("unindexed where: %v", err)
	}
	// Unknown table/column.
	if _, err := s.Exec("SELECT * FROM ghost"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := s.Exec("SELECT * FROM t WHERE zz = 1"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestCompositeKeyAndResidualFilter(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE o (w INT, d INT, o INT, v TEXT, PRIMARY KEY(w, d, o))")
	for w := int64(1); w <= 2; w++ {
		for d := int64(1); d <= 3; d++ {
			for o := int64(1); o <= 4; o++ {
				mustExec(t, s, "INSERT INTO o VALUES (?, ?, ?, 'r')", core.I(w), core.I(d), core.I(o))
			}
		}
	}
	// Prefix scan on (w, d).
	res := mustExec(t, s, "SELECT o FROM o WHERE w = 1 AND d = 2")
	if len(res.Rows) != 4 {
		t.Fatalf("prefix scan: %d rows", len(res.Rows))
	}
	// Point on full key.
	res = mustExec(t, s, "SELECT v FROM o WHERE w = 2 AND d = 3 AND o = 4")
	if len(res.Rows) != 1 {
		t.Fatalf("point: %d rows", len(res.Rows))
	}
	// Residual filter: o = 2 is not a contiguous prefix with (w) only...
	// w = 1 AND o = 2 uses prefix (w) and filters o per row.
	res = mustExec(t, s, "SELECT d FROM o WHERE w = 1 AND o = 2")
	if len(res.Rows) != 3 {
		t.Fatalf("residual filter: %d rows", len(res.Rows))
	}
	// LIMIT.
	res = mustExec(t, s, "SELECT * FROM o WHERE w = 1 LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("limit: %d rows", len(res.Rows))
	}
}

func TestLimitZeroAndNegative(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE lim (a INT, PRIMARY KEY(a))")
	for i := int64(1); i <= 10; i++ {
		mustExec(t, s, "INSERT INTO lim VALUES (?)", core.I(i))
	}
	// LIMIT 0 is a real limit, not "unlimited": zero rows, regardless of
	// plan shape (scan or point).
	res := mustExec(t, s, "SELECT * FROM lim LIMIT 0")
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT * FROM lim WHERE a = 3 LIMIT 0")
	if len(res.Rows) != 0 {
		t.Fatalf("point LIMIT 0 returned %d rows", len(res.Rows))
	}
	// Positive limits still bound.
	res = mustExec(t, s, "SELECT * FROM lim LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(res.Rows))
	}
	// No LIMIT clause is unbounded.
	res = mustExec(t, s, "SELECT * FROM lim")
	if len(res.Rows) != 10 {
		t.Fatalf("unlimited returned %d rows", len(res.Rows))
	}
	// Negative limits are a parse error, not a silent "unlimited".
	if _, err := s.Exec("SELECT * FROM lim LIMIT -1"); err == nil ||
		!strings.Contains(err.Error(), "LIMIT must be non-negative") {
		t.Fatalf("negative limit: %v", err)
	}
}

func TestLexerEdgeCases(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE e (a INT, b TEXT, PRIMARY KEY(a))")
	// Escaped quote and negative number.
	mustExec(t, s, "INSERT INTO e VALUES (-5, 'it''s')")
	res := mustExec(t, s, "SELECT b FROM e WHERE a = -5")
	if res.Rows[0][0].Str() != "it's" {
		t.Fatalf("escape: %q", res.Rows[0][0].Str())
	}
	// Float literal.
	mustExec(t, s, "CREATE TABLE fl (a INT, x FLOAT, PRIMARY KEY(a))")
	mustExec(t, s, "INSERT INTO fl VALUES (1, 3.25)")
	res = mustExec(t, s, "SELECT x FROM fl WHERE a = 1")
	if res.Rows[0][0].Float() != 3.25 {
		t.Fatalf("float: %v", res.Rows[0][0])
	}
	// Garbage.
	if _, err := s.Exec("SELEKT things"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := s.Exec("INSERT INTO e VALUES (1, 'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
}

func TestInterpretedVsCompiledSameResults(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE cmp (a INT, b INT, PRIMARY KEY(a))")
	for i := int64(0); i < 50; i++ {
		mustExec(t, s, "INSERT INTO cmp VALUES (?, ?)", core.I(i), core.I(i*i))
	}
	stmt, err := s.Prepare("SELECT b FROM cmp WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		interp := mustExec(t, s, "SELECT b FROM cmp WHERE a = ?", core.I(i))
		comp, err := stmt.Exec(core.I(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(interp.Rows) != 1 || len(comp.Rows) != 1 ||
			interp.Rows[0][0].Int() != comp.Rows[0][0].Int() {
			t.Fatalf("divergence at %d: %v vs %v", i, interp.Rows, comp.Rows)
		}
	}
}

func TestAdoptAllSyncsTrailingCatalog(t *testing.T) {
	f, e := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE seen (a INT, PRIMARY KEY(a))")

	// A second frontend over the same engine plays the primary whose DDL
	// replays into the engine behind this frontend's back (the replica
	// situation: the engine catalog advances, the frontend's does not).
	other := NewFrontend("hiengine", adapt.New(e))
	if _, err := other.AdoptAll("hiengine", nil); err != nil {
		t.Fatal(err)
	}
	mustExec(t, other.NewSession(1), "CREATE TABLE unseen (a INT, b TEXT, PRIMARY KEY(a))")
	mustExec(t, other.NewSession(1), "INSERT INTO unseen VALUES (7, 'x')")

	if _, err := s.Exec("SELECT * FROM unseen"); err == nil {
		t.Fatal("frontend resolved a table it never adopted")
	}

	var schemas []*core.Schema
	for _, name := range e.Tables() {
		tbl, err := e.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, tbl.Schema)
	}
	added, err := f.AdoptAll("hiengine", schemas)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1 (only the unseen table)", added)
	}
	res := mustExec(t, s, "SELECT b FROM unseen WHERE a = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "x" {
		t.Fatalf("post-adopt select: %+v", res.Rows)
	}

	// Idempotent: a second sync adopts nothing.
	if added, err = f.AdoptAll("hiengine", schemas); err != nil || added != 0 {
		t.Fatalf("resync: added=%d err=%v, want 0,nil", added, err)
	}
	if _, err := f.AdoptAll("bogus", schemas); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestUpdateLoweringsAgree runs one UPDATE script against an engine with
// engineapi.ColumnUpdater (HiEngine: one call, the row spliced in its stored
// form) and one without (innosim: read, check, copy, write back) and expects
// the same affected counts and the same rows.
func TestUpdateLoweringsAgree(t *testing.T) {
	f, _ := testFrontend(t)
	inno, err := innosim.New(innosim.Config{Service: srss.New(srss.Config{}), SegmentSize: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inno.Close)
	f.Register("innodb", inno)
	s := f.NewSession(0)
	script := func(table string) (affected []int, rows []core.Row) {
		for id := int64(1); id <= 3; id++ {
			mustExec(t, s, "INSERT INTO "+table+" VALUES (?, ?, ?, ?)", core.I(id), core.S("n"), core.I(id*10), core.Null)
		}
		for _, st := range []struct {
			sql  string
			args []core.Value
		}{
			{"UPDATE " + table + " SET v = ? WHERE id = ?", []core.Value{core.I(11), core.I(1)}},
			{"UPDATE " + table + " SET name = ?, note = ?, v = 0 WHERE id = ?", []core.Value{core.S("a much longer name than before"), core.S("x"), core.I(2)}},
			{"UPDATE " + table + " SET v = 1, v = 2 WHERE id = 3", nil},                                   // the last assignment wins
			{"UPDATE " + table + " SET v = 99 WHERE id = 3 AND name = ?", []core.Value{core.S("m")}},      // residual mismatch
			{"UPDATE " + table + " SET note = NULL WHERE id = 2 AND name = ?", []core.Value{core.S("n")}}, // stale residual
			{"UPDATE " + table + " SET name = '' WHERE id = 1 AND v = 11 AND name = 'n'", nil},            // residual match
			{"UPDATE " + table + " SET v = 5 WHERE id = 4", nil},                                          // no such row
			{"UPDATE " + table + " SET note = ? WHERE id = ?", []core.Value{core.B([]byte{0, 1, 2}), core.I(1)}},
		} {
			affected = append(affected, mustExec(t, s, st.sql, st.args...).Affected)
		}
		for id := int64(1); id <= 4; id++ {
			rows = append(rows, mustExec(t, s, "SELECT * FROM "+table+" WHERE id = ?", core.I(id)).Rows...)
		}
		return affected, rows
	}
	const cols = " (id INT, name TEXT, v INT, note TEXT, PRIMARY KEY(id))"
	mustExec(t, s, "CREATE TABLE spliced"+cols+" WITH ENGINE=hiengine")
	mustExec(t, s, "CREATE TABLE copied"+cols+" WITH ENGINE=innodb")
	gotN, gotRows := script("spliced")
	wantN, wantRows := script("copied")
	if fmt.Sprint(gotN) != fmt.Sprint(wantN) {
		t.Fatalf("affected counts: spliced %v, get-then-update %v", gotN, wantN)
	}
	if fmt.Sprint(gotRows) != fmt.Sprint(wantRows) {
		t.Fatalf("rows after the script:\nspliced         %v\nget-then-update %v", gotRows, wantRows)
	}
	if want := []int{1, 1, 1, 0, 0, 1, 0, 1}; fmt.Sprint(gotN) != fmt.Sprint(want) {
		t.Fatalf("affected counts %v, want %v", gotN, want)
	}
	// Setting the key column itself re-keys the row (the baseline's update
	// does not, so this is checked on the spliced path alone).
	mustExec(t, s, "UPDATE spliced SET id = 7 WHERE id = 3")
	if res := mustExec(t, s, "UPDATE spliced SET v = ? WHERE id = ?", core.I(-1<<40), core.I(7)); res.Affected != 1 {
		t.Fatalf("update under the new key affected %d rows", res.Affected)
	}
	if res := mustExec(t, s, "SELECT v FROM spliced WHERE id = 3"); len(res.Rows) != 0 {
		t.Fatalf("the old key still resolves: %v", res.Rows)
	}
	if _, err := s.Exec("UPDATE spliced SET id = 1 WHERE id = 7"); !errors.Is(err, engineapi.ErrDuplicate) {
		t.Fatalf("re-keying onto a taken key: %v", err)
	}
}

// TestDMLResultIsTheSessions: the Result of an INSERT, UPDATE or DELETE is
// the session's one, valid until its next statement -- two successive ones
// alias, and a caller that wants Affected for longer copies it out -- while a
// SELECT's Result is the caller's: a statement run after it leaves it alone.
func TestDMLResultIsTheSessions(t *testing.T) {
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE r (id INT, v INT, PRIMARY KEY(id))")
	ins := mustExec(t, s, "INSERT INTO r VALUES (1, 10)")
	if ins.Affected != 1 {
		t.Fatalf("INSERT affected %d rows", ins.Affected)
	}
	sel := mustExec(t, s, "SELECT id, v FROM r WHERE id = 1")
	miss := mustExec(t, s, "UPDATE r SET v = 11 WHERE id = 2")
	if miss != ins {
		t.Error("two DML results of one session are two Results: the per-statement allocation is back")
	}
	if miss.Affected != 0 || ins.Affected != 0 {
		t.Errorf("an UPDATE of no row reports %d through its Result and %d through the INSERT's, which it is", miss.Affected, ins.Affected)
	}
	st, err := s.Prepare("DELETE FROM r WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	del, err := st.Exec(core.I(1))
	if err != nil || del != ins || del.Affected != 1 {
		t.Errorf("prepared DELETE: result %p (the session's is %p), affected %d, err %v", del, ins, del.Affected, err)
	}
	if sel == ins || len(sel.Rows) != 1 || sel.Rows[0][1].Int() != 10 || len(sel.Columns) != 2 || sel.Affected != 0 {
		t.Errorf("the SELECT's result changed under later statements: %+v", sel)
	}
	if other := mustExec(t, f.NewSession(1), "INSERT INTO r VALUES (3, 30)"); other == ins {
		t.Error("two sessions share a DML result")
	}
}

// TestWriteStatementAllocs holds prepared writes in an open transaction to
// what outlives the transaction: an INSERT its version and index leaf, a
// point UPDATE its version. The row's bytes go into the transaction's log
// buffer, the Result is the session's, parameters are bound into session
// scratch and the row never exists as Values below sqlfront.
func TestWriteStatementAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f, _ := testFrontend(t)
	s := f.NewSession(0)
	mustExec(t, s, "CREATE TABLE bench (id INT, k INT, c TEXT, PRIMARY KEY(id))")
	ins, err := s.Prepare("INSERT INTO bench VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	upd, err := s.Prepare("UPDATE bench SET k = ?, c = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	text := core.S(strings.Repeat("x", 100))
	args := make([]core.Value, 3)
	next := int64(0)
	mustExec(t, s, "BEGIN")
	avg := testing.AllocsPerRun(500, func() {
		args[0], args[1], args[2] = core.I(next), core.I(next*7919), text
		next++
		if _, err := ins.Exec(args...); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 3 { // 2, the index's inner nodes and the buffer's growth
		t.Errorf("a prepared INSERT allocates %.1f times, want <= 3", avg)
	}
	avg = testing.AllocsPerRun(500, func() {
		next++
		args[0], args[1], args[2] = core.I(next), text, core.I(next%500)
		if res, err := upd.Exec(args...); err != nil || res.Affected != 1 {
			t.Fatal(res, err)
		}
	})
	if avg > 2 {
		t.Errorf("a prepared point UPDATE allocates %.1f times, want <= 2", avg)
	}
	mustExec(t, s, "COMMIT")
}
