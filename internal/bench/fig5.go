package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/baseline/innosim"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/engineapi"
	"hiengine/internal/obs"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
)

// Figure 5 compares HiEngine against DBMS-T (GaussDB(for MySQL)) and vanilla
// MySQL on sysbench-style read-only and write-only microbenchmarks under the
// cloud deployment: HiEngine commits against compute-side persistence while
// the baselines force their logs across the compute/storage network.
// Figure 5(a) runs the interpreted SQL path; Figure 5(b) runs compiled
// (prepared/stored-procedure) execution.
//
// Paper shapes: (a) writes 3.6x vs DBMS-T and 7.5-8.4x vs MySQL; reads 1.6x
// and 4.2-10.8x. (b) writes 3-5x vs DBMS-T, 8-16x vs MySQL; reads 2-3x and
// 7-19x; compiled simple transactions approach 1M TPS and roughly double the
// prepare+execute path.

type fig5Engine struct {
	name  string
	front *sqlfront.Frontend
	close func()
}

func buildFig5Engines(o Options) ([]fig5Engine, *obs.Registry, error) {
	model := delay.CloudProfile()
	var out []fig5Engine

	he, err := core.Open(core.Config{
		Service:     srss.New(srss.Config{Model: model}),
		Workers:     64,
		SegmentSize: 64 << 20,
		Obs:         o.statsReg("fig5:hiengine"),
	})
	if err != nil {
		return nil, nil, err
	}
	out = append(out, fig5Engine{
		name:  "HiEngine",
		front: sqlfront.NewFrontend("hiengine", adapt.New(he)),
		close: he.Close,
	})

	dbmst, err := innosim.New(innosim.Config{
		Service:     srss.New(srss.Config{Model: model}),
		Variant:     innosim.VariantDBMST,
		SegmentSize: 64 << 20,
	})
	if err != nil {
		return nil, nil, err
	}
	out = append(out, fig5Engine{
		name:  "DBMS-T",
		front: sqlfront.NewFrontend("dbms-t", dbmst),
		close: dbmst.Close,
	})

	mysql, err := innosim.New(innosim.Config{
		Service:     srss.New(srss.Config{Model: model}),
		Variant:     innosim.VariantMySQL,
		SegmentSize: 64 << 20,
	})
	if err != nil {
		return nil, nil, err
	}
	out = append(out, fig5Engine{
		name:  "MySQL",
		front: sqlfront.NewFrontend("mysql", mysql),
		close: mysql.Close,
	})
	return out, he.Obs(), nil
}

const fig5Table = "CREATE TABLE sbtest (id INT, k INT, c TEXT, pad TEXT, PRIMARY KEY(id))"

func fig5Load(front *sqlfront.Frontend, size, threads int) error {
	s := front.NewSession(0)
	if _, err := s.Exec(fig5Table); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	per := (size + threads - 1) / threads
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := front.NewSession(w)
			ins, err := sess.Prepare("INSERT INTO sbtest VALUES (?, ?, ?, ?)")
			if err != nil {
				errCh <- err
				return
			}
			lo, hi := w*per+1, (w+1)*per
			if hi > size {
				hi = size
			}
			for id := lo; id <= hi; id++ {
				if _, err := ins.Exec(core.I(int64(id)), core.I(int64(id%97)),
					core.S("sysbench-value-sysbench-value"), core.S("pad")); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// fig5Run measures TPS for one engine/mix/mode combination.
func fig5Run(front *sqlfront.Frontend, size, threads, queriesPerTxn int,
	write, compiled bool, dur time.Duration) (float64, error) {
	out, err := drive(load{
		clients: threads,
		dur:     dur,
		tolerate: func(err error) bool { // the transaction is retried
			return errors.Is(err, engineapi.ErrConflict)
		},
	}, func(w int) (op, error) {
		sess := front.NewSession(w)
		rng := rand.New(rand.NewSource(int64(w)*31 + 1))
		// The compiled path executes prepared handles, the interpreted one
		// hands the same text to the session each time.
		const begin, sel, upd, commit = 0, 1, 2, 3
		texts := [...]string{
			begin:  "BEGIN",
			sel:    "SELECT c FROM sbtest WHERE id = ?",
			upd:    "UPDATE sbtest SET c = ? WHERE id = ?",
			commit: "COMMIT",
		}
		var stmts [len(texts)]*sqlfront.Stmt
		if compiled {
			for i, text := range texts {
				var err error
				if stmts[i], err = sess.Prepare(text); err != nil {
					return nil, err
				}
			}
		}
		exec := func(i int, args ...core.Value) error {
			var err error
			if compiled {
				_, err = stmts[i].Exec(args...)
			} else {
				_, err = sess.Exec(texts[i], args...)
			}
			return err
		}
		txn := func() error {
			if err := exec(begin); err != nil {
				return err
			}
			for q := 0; q < queriesPerTxn; q++ {
				id := core.I(int64(rng.Intn(size) + 1))
				var err error
				if write {
					err = exec(upd, core.S(fmt.Sprintf("v-%d", rng.Int())), id)
				} else {
					err = exec(sel, id)
				}
				if err != nil {
					return err
				}
			}
			return exec(commit)
		}
		return func(int64) (int, error) {
			err := txn()
			if err != nil && sess.InTxn() {
				sess.Exec("ROLLBACK")
			}
			return 0, err
		}, nil
	})
	if err != nil {
		return 0, err
	}
	return out.rate(), nil
}

func fig5(o Options, compiled bool) (*Report, error) {
	size, queries := 50000, 4
	if o.Quick {
		size, queries = 2000, 2
	}
	threads := o.threads(16, 4)
	dur := o.dur(3*time.Second, 300*time.Millisecond)

	engines, heReg, err := buildFig5Engines(o)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, e := range engines {
			e.close()
		}
	}()
	for _, e := range engines {
		o.progress("fig5: loading %s (%d rows)", e.name, size)
		if err := fig5Load(e.front, size, threads); err != nil {
			return nil, fmt.Errorf("load %s: %w", e.name, err)
		}
	}

	type cell struct{ read, write float64 }
	results := map[string]cell{}
	for _, e := range engines {
		o.progress("fig5: running %s (compiled=%v)", e.name, compiled)
		read, err := fig5Run(e.front, size, threads, queries, false, compiled, dur)
		if err != nil {
			return nil, fmt.Errorf("%s read: %w", e.name, err)
		}
		write, err := fig5Run(e.front, size, threads, queries, true, compiled, dur)
		if err != nil {
			return nil, fmt.Errorf("%s write: %w", e.name, err)
		}
		results[e.name] = cell{read: read, write: write}
	}

	id, title := "fig5a", "Performance of inlined (interpreted) queries"
	expected := "HiEngine vs DBMS-T / MySQL: writes 3.6x / 7.5-8.4x; reads 1.6x / 4.2-10.8x"
	if compiled {
		id, title = "fig5b", "Performance of stored procedures (compiled execution)"
		expected = "HiEngine vs DBMS-T / MySQL: writes 3-5x / 8-16x; reads 2-3x / 7-19x"
	}
	r := &Report{
		ID: id, Title: title, Expected: expected,
		Header: []string{"engine", "read-only TPS", "write-only TPS",
			"read vs MySQL", "write vs MySQL", "read vs DBMS-T", "write vs DBMS-T"},
	}
	my := results["MySQL"]
	dt := results["DBMS-T"]
	for _, e := range engines {
		c := results[e.name]
		r.row(e.name, f0(c.read), f0(c.write),
			ratio(c.read, my.read), ratio(c.write, my.write),
			ratio(c.read, dt.read), ratio(c.write, dt.write))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d threads, %d-query transactions, %d rows, cloud latency profile (compute PM append 1us, cross-layer RTT 20us, SSD write 80us)",
			threads, queries, size))
	if compiled {
		// The 1-query "simple transaction" data point and the
		// compiled-vs-interpreted factor.
		he := engines[0]
		simple, err := fig5Run(he.front, size, threads, 1, true, true, dur)
		if err != nil {
			return nil, err
		}
		interp, err := fig5Run(he.front, size, threads, 1, true, false, dur)
		if err != nil {
			return nil, err
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"HiEngine 1-query write txns: compiled %.0f TPS vs interpreted %.0f TPS (%s; paper: compiled ~2x prepare+execute, up to ~1M TPS on 128 ARM cores)",
			simple, interp, ratio(simple, interp).text))
	}
	if o.Stats {
		r.attachStats(heReg)
	}
	return r, nil
}

// Fig5a regenerates Figure 5(a).
func Fig5a(o Options) (*Report, error) { return fig5(o, false) }

// Fig5b regenerates Figure 5(b).
func Fig5b(o Options) (*Report, error) { return fig5(o, true) }
