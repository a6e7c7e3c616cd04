package server

import (
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
// for its CSN alone, a prepared statement reuses its column names, and a
// read-only commit allocates nothing (before: 13.01, 16.00, 10.22, 34.26) --
// plus 0.05: no later change may add an allocation to a request. The last row
// is the benchmark's own oltp_wire transaction.
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

	cases := []struct {
		name string
		max  float64
		op   func() error
	}{
		{"ping", 0.05, s.Ping},
		{"prepared point SELECT", 5.06, func() error { _, err := sel.Exec(one...); return err }},
		{"text point SELECT", 9.05, func() error { _, err := s.Exec("SELECT v FROM a WHERE k = ?", one...); return err }},
		{"empty BEGIN+COMMIT", 0.05, func() error { // no request at all
			if err := s.Begin(); err != nil {
				return err
			}
			return s.Commit()
		}},
		{"BEGIN + prepared UPDATE + COMMIT", 7.26, func() error {
			if err := s.Begin(); err != nil {
				return err
			}
			if _, err := upd.Exec(two...); err != nil {
				return err
			}
			return s.Commit()
		}},
		{"BEGIN, 2 SELECT, UPDATE, INSERT, COMMIT", 19.31, func() error { txns++; return txn(txns) }},
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
