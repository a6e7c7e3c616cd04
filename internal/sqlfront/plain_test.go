package sqlfront

import (
	"errors"
	"fmt"
	"testing"

	"hiengine/internal/adapt"
	"hiengine/internal/core"
	"hiengine/internal/engineapi"
)

// plainDB is an engine with only engineapi.DB's and engineapi.Txn's methods,
// like a test stub: HiEngine behind a wrapper whose transactions show
// engineapi.Txn alone, so every optional capability the SQL layer looks for
// is missing and each statement takes its fallback.
type plainDB struct{ db engineapi.DB }

type plainTxn struct{ engineapi.Txn }

func (p plainDB) CreateTable(s *core.Schema) error { return p.db.CreateTable(s) }

func (p plainDB) Begin(worker int) (engineapi.Txn, error) {
	tx, err := p.db.Begin(worker)
	if err != nil {
		return nil, err
	}
	return plainTxn{tx}, nil
}

func plainFrontend(t *testing.T) *Frontend {
	t.Helper()
	e, err := core.Open(core.Config{Workers: 4, SegmentSize: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return NewFrontend("plain", plainDB{adapt.New(e)})
}

// TestPlainEngine: on an engine with nothing past engineapi.Txn, a point and
// a prefix SELECT read the same rows decoded and into a RowBuf, an UPDATE
// reads, checks and writes back its row (getThenUpdate), a DELETE and a text
// COMMIT land, and a cursor fails with errNoRanges.
func TestPlainEngine(t *testing.T) {
	s := plainFrontend(t).NewSession(0)
	loadScanTable(t, s)
	point, prefix := "SELECT id, c FROM scanb WHERE grp = ? AND id = ?", "SELECT id, c FROM scanb WHERE grp = ?"
	check := func(sql string, want []core.Row, args ...core.Value) {
		t.Helper()
		st, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		var sink RowBuf
		if _, err := st.ExecEncoded(&sink, args...); err != nil {
			t.Fatal(err)
		}
		encoded, _, err := core.DecodeRows(nil, sink.Data, sink.N)
		if err != nil {
			t.Fatal(err)
		}
		decoded := mustExec(t, s, sql, args...).Rows
		if fmt.Sprint(decoded) != fmt.Sprint(want) || fmt.Sprint(encoded) != fmt.Sprint(want) {
			t.Fatalf("%s %v: decoded %v, encoded %v, want %v", sql, args, decoded, encoded, want)
		}
	}
	row := func(g, id int64, c string) core.Row {
		if c == "" {
			c = fmt.Sprintf("%d:%098d", g, id)
		}
		return core.Row{core.I(id), core.S(c)}
	}
	check(point, []core.Row{row(1, 3, "")}, core.I(1), core.I(3))
	var group []core.Row
	for id := int64(0); id < 100; id++ {
		group = append(group, row(2, id, ""))
	}
	check(prefix, group, core.I(2))

	mustExec(t, s, "BEGIN")
	if res := mustExec(t, s, "UPDATE scanb SET c = 'new' WHERE grp = 1 AND id = 3 AND k = 21"); res.Affected != 1 {
		t.Fatalf("UPDATE matching its residual affected %d rows", res.Affected)
	}
	if res := mustExec(t, s, "UPDATE scanb SET c = 'no' WHERE grp = 1 AND id = 4 AND k = 0"); res.Affected != 0 {
		t.Fatalf("UPDATE failing its residual affected %d rows", res.Affected)
	}
	if res := mustExec(t, s, "DELETE FROM scanb WHERE grp = 1 AND id = 5"); res.Affected != 1 {
		t.Fatalf("DELETE affected %d rows", res.Affected)
	}
	mustExec(t, s, "COMMIT")
	check(point, []core.Row{row(1, 3, "new")}, core.I(1), core.I(3))
	check(point, nil, core.I(1), core.I(5))
	check(point, []core.Row{row(1, 4, "")}, core.I(1), core.I(4))

	rs, err := s.ExecStream(prefix, core.I(2))
	if err != nil {
		t.Fatal(err)
	}
	var page RowBuf
	if done, err := rs.NextPage(&page, 10, 0); !done || !errors.Is(err, errNoRanges) {
		t.Fatalf("a cursor page on a plain engine: done=%v err=%v, want %v", done, err, errNoRanges)
	}
}
