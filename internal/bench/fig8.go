package bench

import (
	"fmt"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/core"
	"hiengine/internal/srss"
	"hiengine/internal/workload/tpcc"
)

// Figure 8: recovery time objective (RTO) with parallel recovery. The paper
// loads 40 warehouses, runs 40 workers to produce a large log, then
// measures replay time; parallel replay improves RTO by ~10x, and longer
// runs (more log) increase RTO linearly, motivating frequent checkpoints.
func Fig8(o Options) (*Report, error) {
	warehouses := 8
	threads := 8
	sc := tpcc.BenchScale()
	runDur := o.dur(3*time.Second, 300*time.Millisecond)
	replayThreads := []int{1, 2, 4, 8}
	if o.Quick {
		warehouses, threads = 2, 4
		sc = tpcc.SmallScale()
		replayThreads = []int{1, 4}
	}

	svc := srss.New(srss.Config{}) // zero latency: measure CPU-bound replay
	e, err := core.Open(core.Config{
		Service:     svc,
		Workers:     threads + 2,
		SegmentSize: 1 << 20, // many segments => parallel replay has work units
		Obs:         o.statsReg("fig8:hiengine"),
	})
	if err != nil {
		return nil, err
	}
	db := adapt.New(e)
	o.progress("fig8: loading %d warehouses", warehouses)
	if err := tpcc.Load(db, warehouses, sc, threads); err != nil {
		return nil, err
	}
	o.progress("fig8: generating log for %v", runDur)
	d := tpcc.NewDriver(tpcc.Config{
		DB: db, Warehouses: warehouses, Threads: threads, Scale: sc,
		Duration: runDur, Seed: 5, Partitioned: true,
	})
	res, err := d.Run()
	if err != nil {
		return nil, err
	}
	logBytes := e.Log().TotalBytes()
	segs := len(e.Log().Segments())
	manifestID := e.ManifestID()
	heReg := e.Obs()
	e.Close() // crash point

	r := &Report{
		ID:       "fig8",
		Title:    "Performance speedup from parallel recovery",
		Expected: "parallel replay improves RTO by ~10x; RTO grows with log volume, motivating frequent checkpoints",
		Header:   []string{"replay threads", "replay time", "speedup vs serial", "records/s"},
	}
	var serial time.Duration
	for _, rt := range replayThreads {
		o.progress("fig8: recovering with %d threads", rt)
		e2, stats, err := core.Recover(core.Config{
			Service: svc, Workers: 4, SegmentSize: 1 << 20,
		}, manifestID, core.RecoverOptions{ReplayThreads: rt})
		if err != nil {
			return nil, err
		}
		e2.Close()
		if rt == replayThreads[0] {
			serial = stats.ReplayDuration
		}
		rate := float64(stats.RecordsScanned) / stats.ReplayDuration.Seconds()
		r.row(rt, took(stats.ReplayDuration), ratio(float64(serial), float64(stats.ReplayDuration)), f0(rate))
	}

	// Checkpoint ablation: recover from a checkpointed manifest.
	e3, _, err := core.Recover(core.Config{Service: svc, Workers: 4, SegmentSize: 1 << 20},
		manifestID, core.RecoverOptions{ReplayThreads: 4})
	if err != nil {
		return nil, err
	}
	if _, err := e3.Checkpoint(); err != nil {
		return nil, err
	}
	manifest2 := e3.ManifestID()
	e3.Close()
	e4, statsCk, err := core.Recover(core.Config{Service: svc, Workers: 4, SegmentSize: 1 << 20},
		manifest2, core.RecoverOptions{ReplayThreads: 4})
	if err != nil {
		return nil, err
	}
	e4.Close()
	r.Notes = append(r.Notes, fmt.Sprintf(
		"workload produced %d committed txns, %.1f MB of log in %d segments",
		res.Total(), float64(logBytes)/(1<<20), segs))
	r.Notes = append(r.Notes, fmt.Sprintf(
		"with a fresh dataless checkpoint (%d entries), 4-thread replay takes %v -- checkpoints bound the log replayed, the paper's motivation for frequent checkpoints",
		statsCk.CheckpointEntries, statsCk.ReplayDuration.Round(time.Microsecond)))
	r.Notes = append(r.Notes,
		"replay time is RecoveryStats.ReplayDuration: the log's tail replayed, then the dataless checkpoint's stubs and their index keys, until the PIAs are up; not the tail's index keys after it; record data faults in lazily via SRSS mmap views")
	if o.Stats {
		r.attachStats(heReg) // log-generation phase of the crashed engine
	}
	return r, nil
}
