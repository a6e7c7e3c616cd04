package server

import (
	"fmt"
	"testing"

	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/wire"
)

// TestArgumentsLiveAsLongAsTheirRequest: a request's arguments are decoded
// with their strings pointing into the request frame, so whatever keeps one
// past its request must copy it. The server here overwrites every frame once
// its handler has returned (scribbleFrames); every way an argument reaches
// the engine -- text and prepared statements, a begin-carrying statement,
// traced requests, an atomic and an in-transaction batch, a 2PC prepare, and
// a cursor, whose arguments it reads again on every page, on an engine with
// raw key ranges and on one without -- must still read back exactly what the
// client sent.
func TestArgumentsLiveAsLongAsTheirRequest(t *testing.T) {
	h := newHarnessServer(t, delay.Zero(), nil, nil, (*Server).scribbleFrames)
	s, err := h.client(t, nil).Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exec := func(sql string, args ...core.Value) *wire.Result {
		t.Helper()
		res, err := s.Exec(sql, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	text := func(i int) string { return fmt.Sprintf("value-%03d-%s", i, "some text long enough to matter") }
	want := map[int64]string{}

	exec("CREATE TABLE b (id INT, tag TEXT, v TEXT, PRIMARY KEY(id))")
	for i := 0; i < 10; i++ { // text statements, auto-commit
		exec("INSERT INTO b VALUES (?, ?, ?)", core.I(int64(i)), core.S(fmt.Sprint("t", i%2)), core.S(text(i)))
		want[int64(i)] = text(i)
	}
	ins, err := s.Prepare("INSERT INTO b VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	upd, err := s.Prepare("UPDATE b SET v = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 40; i++ { // prepared, traced from 20 on, in transactions from 30 on
		if i == 20 {
			s.Trace(true)
		}
		if i >= 30 {
			if err := s.Begin(); err != nil { // the INSERT carries the begin flag
				t.Fatal(err)
			}
		}
		if _, err := ins.Exec(core.I(int64(i)), core.S(fmt.Sprint("t", i%2)), core.S("first")); err != nil {
			t.Fatal(err)
		}
		if _, err := upd.Exec(core.S(text(i)), core.I(int64(i))); err != nil {
			t.Fatal(err)
		}
		if i >= 30 {
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		want[int64(i)] = text(i)
	}
	s.Trace(false)
	batch := func(from int) []wire.BatchStmt {
		var b []wire.BatchStmt
		for i := from; i < from+5; i++ {
			b = append(b, wire.BatchStmt{SQL: "INSERT INTO b VALUES (?, ?, ?)",
				Args: []core.Value{core.I(int64(i)), core.S(fmt.Sprint("t", i%2)), core.S(text(i))}})
			want[int64(i)] = text(i)
		}
		return b
	}
	if _, err := s.ExecBatch(batch(40)); err != nil { // atomic, answered at durability
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecBatch(batch(45)); err != nil { // inside a transaction
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// A 2PC participant: the prepare logs the transaction's writes.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	exec("INSERT INTO b VALUES (?, ?, ?)", core.I(50), core.S("t0"), core.S(text(50)))
	want[50] = text(50)
	if vote, err := s.TxnPrepare("h0.1.7"); err != nil || vote != wire.PreparedWrites {
		t.Fatalf("prepare: vote %d, %v", vote, err)
	}
	decided := make(chan error, 1)
	if err := h.engine.Resolve("h0.1.7", true, func(_ uint64, err error) { decided <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-decided; err != nil {
		t.Fatal(err)
	}

	for id, v := range want {
		res := exec("SELECT v FROM b WHERE id = ?", core.I(id))
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != v {
			t.Fatalf("row %d reads %v, want %q", id, res.Rows, v)
		}
	}

	// A cursor reads its arguments on every page (the residual filter's
	// tag), on either engine.
	s.SetFetchSize(3)
	for _, engine := range []string{"", " WITH ENGINE=innodb"} {
		tbl := "c" + fmt.Sprint(len(engine))
		exec("CREATE TABLE " + tbl + " (name TEXT, id INT, tag TEXT, PRIMARY KEY(name, id))" + engine)
		for i := int64(0); i < 40; i++ {
			exec("INSERT INTO "+tbl+" VALUES (?, ?, ?)", core.S("a long prefix name"), core.I(i), core.S(fmt.Sprint("t", i%2)))
			exec("INSERT INTO "+tbl+" VALUES (?, ?, ?)", core.S("another prefix"), core.I(i), core.S("t0"))
		}
		for _, q := range []struct {
			where       string
			args        []core.Value
			first, step int64
		}{
			{"name = ?", []core.Value{core.S("a long prefix name")}, 0, 1},
			{"name = ? AND tag = ?", []core.Value{core.S("a long prefix name"), core.S("t1")}, 1, 2},
		} {
			sql := "SELECT id FROM " + tbl + " WHERE " + q.where
			rows, err := s.Query(sql, q.args...)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			n := int64(0)
			for rows.Next() {
				if got, want := rows.Row()[0].Int(), q.first+n*q.step; got != want {
					t.Fatalf("%s: row %d has id %d, want %d", sql, n, got, want)
				}
				n++
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if want := 40 / q.step; n != want {
				t.Fatalf("%s: %d rows, want %d", sql, n, want)
			}
		}
	}
}
