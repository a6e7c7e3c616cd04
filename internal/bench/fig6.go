package bench

import (
	"fmt"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/baseline/memocc"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/engineapi"
	"hiengine/internal/numa"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
	"hiengine/internal/workload/tpcc"
)

// Figure 6: TPC-C throughput of HiEngine vs DBMS-M as the core count grows,
// on the ARM (128-core, 4-die) and x86 (48-core, 2-socket) platforms.
//
// Paper shapes: HiEngine outperforms DBMS-M by ~2x on average (up to 4.5x)
// on ARM and ~30% on x86; beyond 64 cores on ARM HiEngine's scalability
// degrades due to cross-socket remote accesses.
//
// The simulation binds each worker thread to a simulated core of the chosen
// topology and homes each warehouse on the die of its owning thread; every
// record access charges the local/remote-die/remote-socket latency of the
// topology. The DBMS-M driver charges only a fraction of repeated index
// accesses, modeling its transactional thread-local row cache (Section 6.3
// observes it produces fewer cross-NUMA accesses).

// fig6Engine abstracts engine construction for the TPC-C comparisons.
type fig6Engine struct {
	name string
	// rowCacheDamping is the fraction of accesses charged to the NUMA
	// accountant (1.0 = every access; DBMS-M's thread-local row cache
	// absorbs repeated accesses within a transaction).
	damping float64
	// build opens the engine over devices that charge w.
	build func(w delay.Waiter) (engineapi.DB, func(), error)
}

func fig6Engines(model *delay.Model, workers int, reg *obs.Registry) []fig6Engine {
	return []fig6Engine{
		{
			name:    "HiEngine",
			damping: 1.0,
			build: func(w delay.Waiter) (engineapi.DB, func(), error) {
				e, err := core.Open(core.Config{
					Service:     srss.New(srss.Config{Model: model, Waiter: w}),
					Workers:     workers,
					SegmentSize: 64 << 20,
					Obs:         reg,
				})
				if err != nil {
					return nil, nil, err
				}
				return adapt.New(e), e.Close, nil
			},
		},
		{
			name:    "DBMS-M",
			damping: 0.6,
			build: func(w delay.Waiter) (engineapi.DB, func(), error) {
				db, err := memocc.New(memocc.Config{
					Service:     srss.New(srss.Config{Model: model, Waiter: w}),
					Workers:     workers,
					SegmentSize: 64 << 20,
				})
				if err != nil {
					return nil, nil, err
				}
				return db, db.Close, nil
			},
		},
	}
}

// tpccRun is what one TPC-C run measured.
type tpccRun struct {
	tpmC   float64
	remote float64 // the fraction of memory accesses off the worker's die
	// modelled is the latency the model charged per committed transaction,
	// memory accesses and log appends, in microseconds -- and DBMS-M's wait
	// for its group-commit epoch, which goes through the same waiter.
	modelled cell
}

// runTPCC loads and runs one engine at the given thread count on a topology.
func runTPCC(eng fig6Engine, topo numa.Topology, threads, warehouses int,
	sc tpcc.Scale, dur time.Duration, partitioned bool, policy numa.Policy) (tpccRun, error) {
	m := new(meter)
	db, closeFn, err := eng.build(m)
	if err != nil {
		return tpccRun{}, err
	}
	defer closeFn()
	// At most one loader per worker slot: two on one slot collide.
	if err := tpcc.Load(db, warehouses, sc, min(8, threads)); err != nil {
		return tpccRun{}, err
	}
	from := m.charged.Load()
	acct := numa.NewAccountant(topo, m)
	activeDies := min(max((threads+topo.CoresPerDie-1)/topo.CoresPerDie, 1), topo.TotalDies())
	// Each warehouse is homed on the die of the thread that owns it under
	// partitioned placement; the policy can override (Figure 7).
	homeDie := func(w int) int {
		return policy.Place(w, topo.Core((w-1)%threads).Die, activeDies)
	}
	// Shared-structure cross-socket charges: when the active cores span
	// more than one socket, every commit bounces the CSN counter's and the
	// log tails' cache lines across the interconnect (Section 6.3's
	// explanation for HiEngine's >64-core dip). DBMS-M pays the same for
	// its commit TID counter.
	spansSockets := topo.Core(0).Socket != topo.Core(threads-1).Socket
	onCommit := func(thread int) {
		if !spansSockets {
			return
		}
		c := topo.Core(thread)
		remoteSocketDie := ((c.Socket + 1) % topo.Sockets) * topo.DiesPerSocket
		// CSN fetch-add + log-tail handoff.
		acct.Access(c, remoteSocketDie)
		acct.Access(c, remoteSocketDie)
	}
	counters := make([]int64, threads) // per-thread damping counters
	onAccess := func(thread, w int) {
		core := topo.Core(thread)
		if eng.damping < 1.0 {
			counters[thread]++
			if float64(counters[thread]%10) >= eng.damping*10 {
				// Served from the thread-local row cache: the access
				// stays on the worker's own die.
				acct.Access(core, core.Die)
				return
			}
		}
		acct.Access(core, homeDie(w))
	}
	d := tpcc.NewDriver(tpcc.Config{
		DB:            db,
		Warehouses:    warehouses,
		Threads:       threads,
		Scale:         sc,
		Duration:      dur,
		Seed:          99,
		Partitioned:   partitioned,
		OnAccess:      onAccess,
		OnCommit:      onCommit,
		PipelineDepth: 8, // engines without AsyncCommitter stay synchronous
	})
	res, err := d.Run()
	if err != nil {
		return tpccRun{}, err
	}
	run := tpccRun{res.TpmC(), acct.RemoteFraction(), m.perOp(from, res.Total())}
	if err := d.Verify(); err != nil {
		return tpccRun{}, fmt.Errorf("consistency after run: %w", err)
	}
	return run, nil
}

// Fig6 regenerates Figure 6.
func Fig6(o Options) (*Report, error) {
	sc := tpcc.BenchScale()
	dur := o.dur(2*time.Second, 250*time.Millisecond)
	armCounts := []int{16, 32, 64, 96, 128}
	x86Counts := []int{12, 24, 48}
	if o.Quick {
		sc = tpcc.SmallScale()
		armCounts = []int{8, 32}
		x86Counts = []int{8, 24}
	}
	model := delay.CloudProfile()
	reg := o.statsReg("fig6:hiengine")

	r := &Report{
		ID:       "fig6",
		Title:    "Overall TPC-C performance on ARM and x86 platforms",
		Expected: "HiEngine ~2x DBMS-M on ARM (up to 4.5x), ~+30% on x86; HiEngine dips past 64 ARM cores from cross-socket accesses",
		Header:   []string{"platform", "cores", "engine", "tpmC", "remote-access", "HiEngine/DBMS-M", "modelled us/txn"},
	}
	type key struct {
		platform string
		cores    int
	}
	results := map[key]map[string]tpccRun{}

	run := func(platform string, topo numa.Topology, counts []int) error {
		for _, cores := range counts {
			k := key{platform, cores}
			results[k] = map[string]tpccRun{}
			for _, eng := range fig6Engines(model, cores, reg) {
				o.progress("fig6: %s %d cores %s", platform, cores, eng.name)
				res, err := runTPCC(eng, topo, cores, cores, sc, dur, true, numa.PolicyLocal)
				if err != nil {
					return fmt.Errorf("%s/%d/%s: %w", platform, cores, eng.name, err)
				}
				results[k][eng.name] = res
			}
		}
		return nil
	}
	armTopo := numa.ARMKunpeng920()
	if err := run("ARM", armTopo, armCounts); err != nil {
		return nil, err
	}
	x86Topo := numa.X86Xeon()
	if err := run("x86", x86Topo, x86Counts); err != nil {
		return nil, err
	}

	emit := func(platform string, counts []int) {
		for _, cores := range counts {
			hi, dm := results[key{platform, cores}]["HiEngine"], results[key{platform, cores}]["DBMS-M"]
			r.row(platform, cores, "HiEngine", f0(hi.tpmC), pct(hi.remote), ratio(hi.tpmC, dm.tpmC), hi.modelled)
			r.row(platform, cores, "DBMS-M", f0(dm.tpmC), pct(dm.remote), "", dm.modelled)
		}
	}
	emit("ARM", armCounts)
	emit("x86", x86Counts)
	r.Notes = append(r.Notes,
		"threads are bound to simulated cores; physical parallelism is capped by the host CPU, so curves flatten where the host saturates -- the HiEngine/DBMS-M ratio and the remote-access growth past one socket are the reproduced signals")
	r.attachStats(reg) // aggregated across HiEngine runs at every core count
	return r, nil
}
