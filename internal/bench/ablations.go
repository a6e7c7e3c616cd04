package bench

import (
	"fmt"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

// Ablations measures the design decisions DESIGN.md calls out, as wall-time
// per operation (the same measurements exist as testing.B benchmarks in the
// repository root; this runner makes them part of the hibench report set).
// Each commit variant also reports two counts the host cannot move, read as
// its own deltas of the registry every variant's engine records into:
// commits per SRSS append (wal.batch_txns) and cross-layer SRSS operations
// per commit (srss.cross_layer_ops). Each checkpoint variant reports the
// bytes it wrote per row: the dataless image's size
// (core.checkpoint_image_bytes), and the full-data PLog's.
func Ablations(o Options) (*Report, error) {
	iters := 2000
	if o.Quick {
		iters = 300
	}
	r := &Report{
		ID:       "ablations",
		Title:    "Design-decision ablations (see DESIGN.md)",
		Expected: "compute-side commit ~10x cheaper than storage-side; pipelining ~2x; group commit amortizes appends; a dataless checkpoint writes fewer bytes per row than a full-data one (keys and addresses, not payloads; its wall time is reported, not compared)",
		Header:   []string{"ablation", "variant", "per-op", "commits/append", "cross-layer ops/commit", "bytes/row"},
	}

	reg := obs.NewRegistry("ablations:hiengine")
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

	// Each commit variant times its insert loop and counts its appends, the
	// commits they carried and its cross-layer operations. The counts are
	// read once Close has stopped the streams, so every batch is in.
	batches, crossOps := reg.Histogram("wal.batch_txns"), reg.Counter("srss.cross_layer_ops")
	for _, v := range []struct {
		ablation, variant string
		tier              srss.Tier
		batch             int
		pipeline          bool
	}{
		{"commit persistence", "compute-side", srss.TierCompute, 64, false}, // the paper's core claim
		{"commit persistence", "storage-side", srss.TierStorage, 64, false},
		{"commit pipelining", "sync", srss.TierCompute, 64, false},
		{"commit pipelining", "pipelined", srss.TierCompute, 64, true},
		{"group commit", "batch-1", srss.TierCompute, 1, true}, // single stream, pipelined
		{"group commit", "batch-64", srss.TierCompute, 64, true},
	} {
		o.progress("ablations: %s %s", v.ablation, v.variant)
		e, tbl, err := newEngine(v.tier, v.batch)
		if err != nil {
			return nil, err
		}
		appends, commits, cross := batches.Count(), batches.Sum(), crossOps.Load()
		d, err := insertLoop(e, tbl, iters, v.pipeline)
		e.Close()
		if err != nil {
			return nil, err
		}
		appends, commits, cross = batches.Count()-appends, batches.Sum()-commits, crossOps.Load()-cross
		r.row(v.ablation, v.variant, took(d), f2(float64(commits)/float64(appends)), f2(float64(cross)/float64(iters)), "")
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
		imageBytes := reg.Gauge("core.checkpoint_image_bytes").Load()
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
		r.row("checkpoint", "dataless (PIA only)", took(dataless), "", "", f2(float64(imageBytes)/float64(rows)))
		r.row("checkpoint", "full-data", took(fulldata), "", "", f2(float64(plog.Size())/float64(rows)))
		r.Notes = append(r.Notes, fmt.Sprintf("checkpoint table had %d rows; wall time full-data/dataless = %s (reported, not compared)", rows, ratio(float64(fulldata), float64(dataless)).text))
	}
	if o.Stats {
		r.attachStats(reg) // aggregated across the ablation engines
	}
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
