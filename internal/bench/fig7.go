package bench

import (
	"fmt"
	"time"

	"hiengine/internal/delay"
	"hiengine/internal/numa"
	"hiengine/internal/workload/tpcc"
)

// Figure 7: the interaction of workload partitioning and memory-allocation
// policy on the 2-socket/4-die ARM machine, using 2 dies (32 cores each).
//
// Paper shapes: partitioning the workload cuts cross-NUMA remote accesses by
// ~26% and lifts tpmC by ~20%; HiEngine beats DBMS-M by >=60% in every
// combination; DBMS-M's thread-local row cache yields fewer remote accesses
// under partition+local; the worst placement produces ~69% remote accesses;
// and tpmC drops roughly 5% per additional 10% of remote accesses.
func Fig7(o Options) (*Report, error) {
	sc := tpcc.BenchScale()
	threads := o.threads(64, 16) // 2 dies x 32 cores
	dur := o.dur(2*time.Second, 250*time.Millisecond)
	topo := numa.ARMKunpeng920()
	if o.Quick {
		sc = tpcc.SmallScale()
		// Scale the topology down with the thread count so the 16
		// threads still span two dies of one socket (the experiment's
		// 2-die configuration).
		topo.CoresPerDie = 8
	}
	warehouses := threads
	model := delay.CloudProfile()

	type combo struct {
		label       string
		partitioned bool
		policy      numa.Policy
	}
	combos := []combo{
		{"partitioned+local", true, numa.PolicyLocal},   // case 1: optimal
		{"partitioned+remote", true, numa.PolicyRemote}, // case 2: worst
		{"random+interleave", false, numa.PolicyInterleave},
		{"random+local", false, numa.PolicyLocal},
	}

	r := &Report{
		ID:       "fig7",
		Title:    "Performance impact of workload partition and memory allocation policy",
		Expected: "partitioned workload: ~-26% remote accesses, ~+20% tpmC; HiEngine >=60% over DBMS-M in every combo; ~5% tpmC lost per +10% remote accesses",
		Header:   []string{"combination", "engine", "tpmC", "remote-access", "HiEngine/DBMS-M"},
	}

	type meas struct {
		tpmc   float64
		remote float64
	}
	reg := o.statsReg("fig7:hiengine")
	all := map[string]map[string]meas{}
	for _, c := range combos {
		all[c.label] = map[string]meas{}
		for _, eng := range fig6Engines(model, threads, reg) {
			o.progress("fig7: %s %s", c.label, eng.name)
			res, acct, err := runTPCC(eng, topo, threads, warehouses, sc, dur, c.partitioned, c.policy)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", c.label, eng.name, err)
			}
			all[c.label][eng.name] = meas{tpmc: res.TpmC(), remote: acct.RemoteFraction()}
		}
	}
	for _, c := range combos {
		hi := all[c.label]["HiEngine"]
		dm := all[c.label]["DBMS-M"]
		r.row(c.label, "HiEngine", f0(hi.tpmc), pct(hi.remote), ratio(hi.tpmc, dm.tpmc))
		r.row(c.label, "DBMS-M", f0(dm.tpmc), pct(dm.remote), "")
	}

	// Derived observations mirroring the paper's text.
	best := all["partitioned+local"]["HiEngine"]
	worst := all["partitioned+remote"]["HiEngine"]
	rnd := all["random+interleave"]["HiEngine"]
	if worst.remote > best.remote {
		slope := (1 - worst.tpmc/best.tpmc) / ((worst.remote - best.remote) / 0.10)
		r.Notes = append(r.Notes, fmt.Sprintf(
			"HiEngine tpmC drop per +10%% remote accesses: %.1f%% (paper: ~5%%); worst-case remote fraction %s (paper: 69%%)",
			slope*100, pct(worst.remote).text))
	}
	if rnd.tpmc > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"partitioning effect (HiEngine): remote accesses %s -> %s, tpmC %sx vs random placement",
			pct(rnd.remote).text, pct(best.remote).text, f2(best.tpmc/rnd.tpmc).text))
	}
	r.attachStats(reg) // aggregated across HiEngine runs in every combo
	return r, nil
}
