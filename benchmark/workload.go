package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/obs"
	"hiengine/internal/sqlfront"
)

// config is one run of one workload.
type config struct {
	spec    *workloadSpec
	seed    uint64
	seconds int  // nominal length of the timed phase; fixes the op counts
	trace   bool // per-layer run: quarter-size untraced and traced phases plus probes
	smoke   bool // tiny sizes, for the tests
	outDir  string
}

// sizes derives every count of a run from the config. Nothing else does.
type sizes struct {
	rows         int // preload
	opsPerWindow int
	setups       int // deployments built for setup_s (the last one is used)
	recoveries   int
	probeIters   int
	pings        int
	spin         bool
}

func (c *config) sizes() sizes {
	s := sizes{rows: preloadRows, opsPerWindow: c.spec.opsPerWindowPerSec * c.seconds,
		setups: 9, recoveries: 5, probeIters: 20_000, pings: 10_000, spin: true}
	if c.trace {
		s.opsPerWindow /= 4
		s.setups = 1
	}
	if c.smoke {
		s = sizes{rows: 2_000, opsPerWindow: 2 * nClients, setups: 1, recoveries: 1, probeIters: 40, pings: 20}
	}
	return s
}

// result is everything one run reports. The contract's result line is
// derived from it; the whole of it is written to out/<workload>.result.json.
type result struct {
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	Host        hostInfo           `json:"host"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Windows     int                `json:"windows"`
	WindowOps   int                `json:"ops_per_window"`
	Preload     int                `json:"preload_rows"`
	Correct     bool               `json:"correct"`
	Error       string             `json:"error,omitempty"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	FailRatio   float64            `json:"fail_ratio"`
	AckedRows   int64              `json:"acked_inserted_rows"`
	Samples     map[string]int     `json:"samples"`
	Metrics     map[string]float64 `json:"metrics"`
	WindowOps1s []float64          `json:"window_ops_per_s"`
	WindowCPUS  []float64          `json:"window_cpu_s"`
	SetupS      []float64          `json:"setup_s_each"`
	RecoverS    []float64          `json:"recover_s_each"`
	SpinMS      [2]float64         `json:"spin_ms_before_after"`
	Disturbed   bool               `json:"disturbed"`
	Ledger      string             `json:"ledger,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       int    `json:"gogc"`
}

func fingerprint() hostInfo {
	gogc := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(gogc)
	return hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: int(gogc[0].Value.Uint64())}
}

// deployment is a built env with its clients' drivers and model.
type deployment struct {
	e       *env
	m       *model
	drivers []driver
}

func (d *deployment) closeDrivers() {
	for _, dr := range d.drivers {
		dr.close()
	}
	d.drivers = nil
}

// deploy is everything before the first timed op: open, DDL, preload,
// listener, connect, prepare.
func deploy(c *config, sz sizes) (*deployment, error) {
	e, err := openEnv(c.seed, c.spec.schema, c.spec.wire, sz.rows)
	if err != nil {
		return nil, err
	}
	d := &deployment{e: e, m: newModel(c.seed, c.spec.schema, sz.rows, c.spec.insertsPerOp)}
	slots := newSlots()
	for cl := 0; cl < nClients; cl++ {
		var dr driver
		switch c.spec.name {
		case "oltp_wire", "oltp_inproc":
			var api oltpAPI
			if c.spec.wire {
				api, err = wireOLTP(e)
			} else {
				api, err = inprocOLTP(e, slots)
			}
			dr = &oltp{api: api, m: d.m, c: cl, gen: newOLTPGen(c.seed, cl, sz.rows)}
		case "scan_wire":
			dr, err = newScanWire(e, d.m, cl)
		case "ingest_recover":
			dr, err = newIngest(e, d.m, cl, slots)
		}
		if err != nil {
			d.closeDrivers()
			e.close()
			return nil, fmt.Errorf("client %d: %w", cl, err)
		}
		d.drivers = append(d.drivers, dr)
	}
	return d, nil
}

// runWorkload runs one workload once and returns its result. A result with
// Correct == false carries the reason in Error.
func runWorkload(c *config) (*result, error) {
	sz := c.sizes()
	res := &result{Workload: c.spec.name, Traced: c.trace, Host: fingerprint(), Seed: c.seed, Seconds: c.seconds,
		Windows: timedWindows, Preload: sz.rows, Samples: map[string]int{}, Metrics: map[string]float64{}}
	for _, spec := range specsFor(c.trace) {
		res.Metrics[spec.name] = 0 // a layer this workload bypasses reports 0
	}
	if sz.spin {
		res.SpinMS[0] = spinMS()
	}

	var dep *deployment
	for i := 0; i < sz.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := deploy(c, sz)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		if i < sz.setups-1 {
			d.closeDrivers()
			d.e.close()
			continue
		}
		dep = d
	}
	e, m := dep.e, dep.m
	defer e.close()

	ph, err := runPhase(e, m, dep.drivers, 0, sz.opsPerWindow)
	if err != nil {
		return nil, err
	}
	var traced *phase
	var before, after *counters
	var tracers []*tracer
	if c.trace {
		epoch := time.Now()
		opsPerClient := ph.opsPerWindow / nClients * (timedWindows + 1)
		for _, d := range dep.drivers {
			t := newTracer(epoch, opsPerClient, d.session())
			d.traceWith(t)
			tracers = append(tracers, t)
		}
		before = readCounters(e)
		if traced, err = runPhase(e, m, dep.drivers, opsPerClient, sz.opsPerWindow); err != nil {
			return nil, err
		}
		after = readCounters(e)
	}

	if c.spec.wire && c.trace {
		res.Metrics["client.ping_rtt_p50_us"], err = pingRTT(e.cl, sz.pings)
		if err != nil {
			return nil, err
		}
	}
	dep.closeDrivers()
	e.stopServing()

	res.WindowOps = ph.opsPerWindow
	res.Attempted, res.Failed = ph.attempted, ph.failed
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
	}
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	res.AckedRows = m.ackedInserts()
	res.WindowOps1s = ph.winRates()
	res.WindowCPUS = ph.winCPUS
	res.Correct = true
	fail := func(err error) {
		if res.Correct {
			res.Correct, res.Error = false, err.Error()
		}
	}
	if m.firstEr != nil {
		fail(fmt.Errorf("%d ops failed, first: %w", res.Failed, m.firstEr))
	}
	if err := m.verify(e.engine); err != nil {
		fail(fmt.Errorf("before the crash: %w", err))
	}
	rec, err := crashAndRecover(e, m, sz.recoveries)
	if err != nil {
		fail(err)
		rec = &recovery{wallS: []float64{0}}
	}
	res.RecoverS = rec.wallS

	if !c.trace {
		endToEndMetrics(res, ph, rec)
	} else {
		layerMetrics(res, c, ph, traced, tracers, before, after, rec)
		sh := shapeOf(c.seed, c.spec.schema)
		if err := runProbes(sh, c.spec.wire, sz.rows, sz.probeIters, res.Metrics); err != nil {
			return nil, err
		}
		if err := writeTrace(c.outDir, c.spec.name, c.seed, c.spec.layer, tracers); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	if sz.spin {
		runtime.GC() // so the second reading does not share the cores with this run's garbage
		res.SpinMS[1] = spinMS()
		lo, hi := res.SpinMS[0], res.SpinMS[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		res.Disturbed = hi > 1.15*lo
	}
	if c.trace {
		res.Metrics["host.spin_ms"] = res.SpinMS[0]
	}
	return res, nil
}

// endToEndMetrics fills the untraced run's metrics.
func endToEndMetrics(res *result, ph *phase, rec *recovery) {
	ops := float64(ph.attempted)
	res.Metrics["setup_s"] = median(res.SetupS)
	res.Metrics["ops_per_s"] = ph.opsPerS()
	res.Metrics["op_p50_us"] = ph.opP50US()
	res.Metrics["cpu_us_per_op"] = ph.cpuUSPerOp()
	res.Metrics["allocs_per_op"] = float64(ph.mallocs) / ops
	res.Metrics["log_bytes_per_user_byte"] = float64(ph.logBytes) / float64(ph.userBytes)
	res.Metrics["heap_mb"] = ph.heapMB
	res.Metrics["recover_s"] = median(rec.wallS)
	res.Samples["op_p50_us"] = len(ph.lat)
	res.Samples["ops_per_s"] = len(ph.winWallS)
	res.Samples["cpu_us_per_op"] = len(ph.winCPUS)
	res.Samples["setup_s"] = len(res.SetupS)
	res.Samples["recover_s"] = len(rec.wallS)
}

// counters is every count the program keeps that the ledger divides by
// ops, read from outside through its exported accessors.
type counters struct {
	obs         map[string]obs.Metric
	srssAppends int64
	srssBytes   int64
	walAppends  int64
	logBytes    int64
	plan        sqlfront.PlanCacheStats
}

func readCounters(e *env) *counters {
	c := &counters{obs: map[string]obs.Metric{}, plan: e.front.PlanCacheStats()}
	for _, m := range e.engine.Obs().Snapshot().Metrics {
		c.obs[m.Name] = m
	}
	st := e.svc.Stats()
	c.srssAppends, c.srssBytes = st.Appends.Load(), st.AppendBytes.Load()
	lm := e.engine.Log()
	for i := 0; i < lm.Streams(); i++ {
		appends, _, _ := lm.Stream(i).Stats()
		c.walAppends += appends
	}
	c.logBytes = lm.TotalBytes()
	return c
}

// delta is counter `name`'s increase from a to b.
func delta(a, b *counters, name string) float64 {
	return float64(b.obs[name].Value - a.obs[name].Value)
}

// deltaPrefix sums the increase of every counter whose name starts with p.
func deltaPrefix(a, b *counters, p string) float64 {
	var sum float64
	for name, m := range b.obs {
		if strings.HasPrefix(name, p) && m.Kind == "counter" {
			sum += float64(m.Value - a.obs[name].Value)
		}
	}
	return sum
}

// histMean is histogram `name`'s mean over the samples added from a to b.
func histMean(a, b *counters, name string) float64 {
	hb, ha := b.obs[name].Hist, a.obs[name].Hist
	if hb == nil {
		return 0
	}
	var n0, s0 int64
	if ha != nil {
		n0, s0 = ha.Count, ha.Sum
	}
	if hb.Count == n0 {
		return 0
	}
	return float64(hb.Sum-s0) / float64(hb.Count-n0)
}

func p50us(samples []int64) float64 { return float64(quantile(samples, 0.5)) / 1e3 }

// layerMetrics fills the traced run's metrics from the span logs and the
// counter deltas over the traced phase. Probe metrics are added after it.
func layerMetrics(res *result, c *config, untraced, traced *phase, tracers []*tracer, a, b *counters, rec *recovery) {
	m := res.Metrics
	// Every op of the traced phase, warm-up window included, ran between
	// the two counter reads.
	ops := float64(traced.opsPerWindow * (timedWindows + 1))
	userBytes := float64(traced.userBytes) * float64(timedWindows+1) / timedWindows

	m["stack.op_p50_us"] = untraced.opP50US()
	m["stack.cpu_us_per_op"] = untraced.cpuUSPerOp()

	var opNS, callNS, commitNS []int64
	frames := 0 // request frames the traced calls need when nothing is retried
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.name > spanOp && s.name < spanServerStage0 {
				frames++
				if s.name == spanScanCursor {
					frames += cursorRequests - 1
				}
			}
			switch {
			case s.name == spanOp:
				opNS = append(opNS, s.durNS)
			case s.name >= spanServerStage0:
			case s.name == spanCommit, c.spec.schema == scanTable && s.name == spanUpdate:
				commitNS = append(commitNS, s.durNS) // the call that waits for durability
			default:
				callNS = append(callNS, s.durNS)
			}
		}
	}
	res.Samples["traced_ops"] = len(opNS)
	layer := c.spec.layer
	m[layer+".call_p50_us"] = p50us(callNS)
	m[layer+".commit_p50_us"] = p50us(commitNS)

	if c.spec.wire {
		slices.Sort(opNS)
		opP50 := float64(quantileSorted(opNS, 0.5)) / 1e3
		m["client.op_p50_us"] = opP50
		m["client.op_p99_us"] = float64(quantileSorted(opNS, 0.99)) / 1e3
		var total, net []int64
		stage := make([][]int64, obs.NumStages)
		for _, t := range tracers {
			for _, so := range t.ops {
				total = append(total, so.totalNS)
				net = append(net, so.netNS)
				for s, ns := range so.stageNS {
					stage[s] = append(stage[s], ns)
				}
			}
		}
		var stages float64
		for s := range stage {
			v := p50us(stage[s])
			m["server.stage."+obs.Stage(s).String()+"_p50_us"] = v
			stages += v
		}
		m["server.total_p50_us"] = p50us(total)
		m["client.net_residual_p50_us"] = p50us(net)
		// The ledger closes by construction: what neither a server stage
		// nor the network residual explains is itself a reported number.
		m["client.unexplained_p50_us"] = opP50 - stages - m["client.net_residual_p50_us"]
		res.Ledger = fmt.Sprintf("traced op p50 %.1f us = server stages %.1f + net residual %.1f + unexplained %.1f (%d ops)",
			opP50, stages, m["client.net_residual_p50_us"], m["client.unexplained_p50_us"], len(opNS))

		requests := deltaPrefix(a, b, "server.requests.")
		m["server.requests_per_op"] = requests / ops
		m["client.retries"] = requests - float64(frames)
		m["server.bytes_in_per_op"] = delta(a, b, "server.bytes_in") / ops
		m["server.bytes_out_per_op"] = delta(a, b, "server.bytes_out") / ops
		m["server.busy_rejects"] = delta(a, b, "server.busy_rejects")
		m["server.slot_wait_busy"] = delta(a, b, "server.slot_wait_busy")
	}

	if lookups := float64(b.plan.Hits-a.plan.Hits) + float64(b.plan.Misses-a.plan.Misses); lookups > 0 {
		m["sqlfront.plan_cache_hit_ratio"] = float64(b.plan.Hits-a.plan.Hits) / lookups
	}
	m["core.gc_reclaimed_per_op"] = delta(a, b, "core.gc_reclaimed_versions") / ops
	m["core.gc_pause_mean_us"] = histMean(a, b, "core.gc_pause_ns") / 1e3
	m["core.conflicts"] = delta(a, b, "core.conflicts")
	m["core.checkpoint_s"] = traced.checkpointS
	if rec.stats != nil {
		m["core.checkpoint_entries"] = float64(rec.stats.CheckpointEntries)
		m["core.recover_replay_s"] = rec.stats.ReplayDuration.Seconds()
		m["core.recover_index_s"] = rec.stats.IndexDuration.Seconds()
		m["core.recover_records"] = float64(rec.stats.RecordsScanned)
		m["core.recover_segments"] = float64(rec.stats.SegmentsScanned)
	}
	m["wal.batch_txns_mean"] = histMean(a, b, "wal.batch_txns")
	m["wal.appends_per_op"] = float64(b.walAppends-a.walAppends) / ops
	m["wal.log_bytes_per_op"] = float64(b.logBytes-a.logBytes) / ops
	m["wal.rotates"] = delta(a, b, "wal.rotates")
	m["wal.append_retries"] = delta(a, b, "wal.append_retries")
	m["srss.appends_per_op"] = float64(b.srssAppends-a.srssAppends) / ops
	m["srss.append_bytes_per_user_byte"] = float64(b.srssBytes-a.srssBytes) / userBytes

	un, tr := untraced.opsPerS(), traced.opsPerS()
	m["obs.trace_overhead_pct"] = 100 * (un - tr) / un
	m["go.gc_cycles"] = float64(traced.gcCycles)
	m["go.gc_pause_ms"] = float64(traced.gcPauseNS) / 1e6
	m["host.window_spread_pct"] = spreadPct(untraced.winRates())
}

// pingRTT is the median of n sequential pings on the idle server: the
// floor under every client call.
func pingRTT(cl *client.Client, n int) (float64, error) {
	ns := make([]int64, n)
	for i := range ns {
		t0 := time.Now()
		if err := cl.Ping(); err != nil {
			return 0, fmt.Errorf("ping: %w", err)
		}
		ns[i] = int64(time.Since(t0))
	}
	return p50us(ns), nil
}

// writeResult stores the full result beside the traces.
func writeResult(dir string, res *result, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := res.Workload + ".result.json"
	if res.Traced {
		name = res.Workload + ".traced.result.json"
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
