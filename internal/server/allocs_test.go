package server

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/raceflag"
)

// TestServiceRoundTripAllocs pins what one loopback round trip allocates,
// client and server together (process-wide runtime.MemStats.Mallocs, both
// ends in this process): the seconds-long guard for the benchmark's 1 %
// allocs_per_op bound, which otherwise takes a benchmark run to see. The
// ceilings are what this test measures now that a statement allocates only
// what its caller keeps -- its argument row, row sink, Result and scan
// callback belong to the connection or the session, a commit's answer is read
// for its CSN alone, a prepared statement decodes each result into its own
// Result, row arrays and column names, a read-only commit allocates nothing,
// and neither does the GC pass a commit's garbage meets, a transaction is one
// allocation on the server, and a commit's callbacks are records the session
// and the connection reuse, a read-only transaction begins in the handle
// its session's last one finished in, the server's arguments point into the
// request frame, a cursor's pages are pulled through a stream the
// connection reopens in place, every transaction begins in its session's
// last handle with its log buffer carved from its worker slot's arena, and a
// cursor open decodes its SQL text and arguments borrowed, into the entry it
// takes, and the client's results alias its receive arena, a cursor's pages
// carved from the connection's slab (before: 13.01, 16.00, 10.22, 34.26 for the
// prepared and text SELECT, the UPDATE and the transaction; 5.01, 7.21 and
// 19.26 for the prepared three while a prepared statement's result was a
// fresh one; 6.21 and 11.27 for the last two while a GC pass built its lists
// afresh; 2.06, 9.05, 6.12 and 11.16 while a transaction was two allocations
// and a commit made two closures; 1.06, 8.05 and 8.16 for the SELECTs and
// the transaction while a read-only transaction was a fresh handle and the
// server copied its arguments; 3.12, 6.12 and 15.06 for the UPDATE, the
// transaction and the cursor scan while a writing transaction was a fresh
// handle and log buffer and a cursor open copied its text and arguments;
// 4.12 and 13.06 for the transaction and the cursor scan while the client
// copied each result's row bytes and gave each page arrays of its own) --
// the most each read in five runs beside a running benchmark, plus 0.05: no
// later change may add an allocation to a request. The transaction is the
// benchmark's own oltp_wire one, the cursor scan scan_wire's every tenth: of
// its 1.5, 1 is the Rows, the rest the slab's chunks, shared by some five
// scans.
func TestServiceRoundTripAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	h := newHarness(t, nil, nil)
	cl := h.client(t, func(o *client.Options) { o.PoolSize = 1 })
	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = s.Exec("CREATE TABLE a (k INT, v INT, PRIMARY KEY(k))")
	must(err)
	_, err = s.Exec("INSERT INTO a VALUES (1, 0)")
	must(err)
	sel, err := s.Prepare("SELECT v FROM a WHERE k = ?")
	must(err)
	upd, err := s.Prepare("UPDATE a SET v = ? WHERE k = ?")
	must(err)
	one := []core.Value{core.I(1)}
	two := []core.Value{core.I(5), core.I(1)}
	txn, _ := benchTxn(t, s)
	var txns int64
	_, err = s.Exec("CREATE TABLE g (grp INT, id INT, c TEXT, PRIMARY KEY(grp, id))")
	must(err)
	for i := int64(0); i < 100; i++ {
		_, err = s.Exec("INSERT INTO g VALUES (1, ?, 'a text column of some length')", core.I(i))
		must(err)
	}
	var kept []core.Row
	scan := func() error { // 100 rows in pages of 32: the open and three more pages
		s.SetFetchSize(32)
		defer s.SetFetchSize(0)
		rows, err := s.Query("SELECT id, c FROM g WHERE grp = ?", one...)
		if err != nil {
			return err
		}
		kept = kept[:0]
		for rows.Next() {
			kept = append(kept, rows.Row())
		}
		if err := rows.Close(); err != nil {
			return err
		}
		if len(kept) != 100 {
			return fmt.Errorf("cursor scan: %d rows, want 100", len(kept))
		}
		return nil
	}

	cases := []struct {
		name string
		max  float64
		op   func() error
	}{
		{"ping", 0.05, s.Ping},
		{"prepared point SELECT", 0.06, func() error { _, err := sel.Exec(one...); return err }},
		{"text point SELECT", 6.05, func() error { _, err := s.Exec("SELECT v FROM a WHERE k = ?", one...); return err }},
		{"empty BEGIN+COMMIT", 0.05, func() error { // no request at all
			if err := s.Begin(); err != nil {
				return err
			}
			return s.Commit()
		}},
		{"BEGIN + prepared UPDATE + COMMIT", 1.12, func() error {
			if err := s.Begin(); err != nil {
				return err
			}
			if _, err := upd.Exec(two...); err != nil {
				return err
			}
			return s.Commit()
		}},
		{"BEGIN, 2 SELECT, UPDATE, INSERT, COMMIT", 2.11, func() error { txns++; return txn(txns) }},
		{"100-row cursor scan in 4 pages", 1.56, scan},
	}
	// With the collector off, sync.Pool keeps what it is given and the
	// counts repeat; the loop allocates a few MB at most.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 2000
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			must(c.op())
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			must(c.op())
		}
		runtime.ReadMemStats(&m1)
		got := float64(m1.Mallocs-m0.Mallocs) / rounds
		t.Logf("%-40s %.2f allocs per call (ceiling %.2f)", c.name, got, c.max)
		if got > c.max {
			t.Errorf("%s: %.2f allocations per call, ceiling %.2f", c.name, got, c.max)
		}
	}
}
