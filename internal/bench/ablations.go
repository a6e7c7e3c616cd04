package bench

import (
	"fmt"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/srss"
)

// Ablations measures the design decisions DESIGN.md calls out, as wall-time
// per operation (the same measurements exist as testing.B benchmarks in the
// repository root; this runner makes them part of the hibench report set).
func Ablations(o Options) (*Report, error) {
	iters := 2000
	if o.Quick {
		iters = 300
	}
	r := &Report{
		ID:       "ablations",
		Title:    "Design-decision ablations (see DESIGN.md)",
		Expected: "compute-side commit ~10x cheaper than storage-side; pipelining ~2x; group commit amortizes appends; dataless checkpoints ~10x cheaper than full-data",
		Header:   []string{"ablation", "variant", "per-op"},
	}

	reg := o.statsReg("ablations:hiengine")
	newEngine := func(tier srss.Tier, batch int) (*core.Engine, *core.Table, error) {
		e, err := core.Open(core.Config{
			Service:          srss.New(srss.Config{Model: delay.CloudProfile()}),
			Workers:          8,
			LogTier:          tier,
			GroupCommitBatch: batch,
			Obs:              reg,
		})
		if err != nil {
			return nil, nil, err
		}
		tbl, err := e.CreateTable(&core.Schema{
			Name:    "t",
			Columns: []core.Column{{Name: "id", Kind: core.KindInt}, {Name: "v", Kind: core.KindString}},
			Indexes: []core.IndexDef{{Name: "pk", Columns: []int{0}, Unique: true}},
		})
		if err != nil {
			e.Close()
			return nil, nil, err
		}
		return e, tbl, nil
	}

	// Commit side (the paper's core claim).
	for _, c := range []struct {
		name string
		tier srss.Tier
	}{{"compute-side", srss.TierCompute}, {"storage-side", srss.TierStorage}} {
		o.progress("ablations: commit-side %s", c.name)
		e, tbl, err := newEngine(c.tier, 64)
		if err != nil {
			return nil, err
		}
		d, err := insertLoop(e, tbl, iters, false)
		e.Close()
		if err != nil {
			return nil, err
		}
		r.row("commit persistence", c.name, took(d))
	}

	// Pipelining.
	for _, pipeline := range []bool{false, true} {
		name := "sync"
		if pipeline {
			name = "pipelined"
		}
		o.progress("ablations: pipeline %s", name)
		e, tbl, err := newEngine(srss.TierCompute, 64)
		if err != nil {
			return nil, err
		}
		d, err := insertLoop(e, tbl, iters, pipeline)
		e.Close()
		if err != nil {
			return nil, err
		}
		r.row("commit pipelining", name, took(d))
	}

	// Group commit batch size (single stream, pipelined).
	for _, batch := range []int{1, 64} {
		o.progress("ablations: group commit batch %d", batch)
		e, tbl, err := newEngine(srss.TierCompute, batch)
		if err != nil {
			return nil, err
		}
		d, err := insertLoop(e, tbl, iters, true)
		e.Close()
		if err != nil {
			return nil, err
		}
		r.row("group commit", fmt.Sprintf("batch-%d", batch), took(d))
	}

	// Dataless vs full-data checkpoint.
	{
		e, tbl, err := newEngine(srss.TierCompute, 64)
		if err != nil {
			return nil, err
		}
		rows := 10000
		if o.Quick {
			rows = 2000
		}
		o.progress("ablations: checkpoint (loading %d rows)", rows)
		for i := 0; i < rows; i++ {
			tx, _ := e.Begin(0)
			if _, err := tx.Insert(tbl, core.Row{core.I(int64(i)), core.S("payload-payload-payload")}); err != nil {
				return nil, err
			}
			if err := tx.Commit(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if _, err := e.Checkpoint(); err != nil {
			return nil, err
		}
		dataless := time.Since(start)
		// Full-data equivalent: write every live payload.
		start = time.Now()
		plog, err := e.Service().Create(srss.TierCompute)
		if err != nil {
			return nil, err
		}
		tx, _ := e.Begin(1)
		buf := make([]byte, 0, 64<<10)
		if err := tx.ScanKey(tbl, 0, nil, nil, func(_ core.RID, row core.Row) bool {
			buf = core.EncodeRow(buf, row)
			if len(buf) >= 64<<10 {
				plog.Append(buf)
				buf = buf[:0]
			}
			return true
		}); err != nil {
			return nil, err
		}
		if len(buf) > 0 {
			plog.Append(buf)
		}
		tx.Commit()
		fulldata := time.Since(start)
		e.Close()
		r.row("checkpoint", "dataless (PIA only)", took(dataless))
		r.row("checkpoint", "full-data", took(fulldata))
		r.Notes = append(r.Notes, fmt.Sprintf("checkpoint table had %d rows; full-data/dataless = %s", rows, ratio(float64(fulldata), float64(dataless)).text))
	}
	r.attachStats(reg) // aggregated across the ablation engines
	return r, nil
}

// insertLoop times n single-row insert transactions, optionally pipelining
// the durability wait through a depth-8 window.
func insertLoop(e *core.Engine, tbl *core.Table, n int, pipeline bool) (time.Duration, error) {
	window := make(chan struct{}, 8)
	start := time.Now()
	for i := 0; i < n; i++ {
		tx, err := e.Begin(0)
		if err != nil {
			return 0, err
		}
		if _, err := tx.Insert(tbl, core.Row{core.I(int64(i)), core.S("v")}); err != nil {
			return 0, err
		}
		if pipeline {
			window <- struct{}{}
			if err := tx.CommitAsync(func(error) { <-window }); err != nil {
				return 0, err
			}
		} else if err := tx.Commit(); err != nil {
			return 0, err
		}
	}
	for i := 0; i < cap(window); i++ {
		window <- struct{}{}
	}
	return time.Since(start) / time.Duration(n), nil
}
