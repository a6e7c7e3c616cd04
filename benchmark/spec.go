package main

import "hiengine/internal/obs"

// workloadSpec is one workload's frozen shape. Work is fixed, not time: a
// window is opsPerWindowPerSec * --seconds ops whatever the host's speed.
// At BENCHMARK.json's run_seconds = 12 the windows are 12,000 / 37,500 /
// 9,000 / 600 ops: ISSUE 12's 16,000 / 50,000 / 12,000 / 800 shrunk
// uniformly by a quarter, so that the pipeline's 92 runs keep a third of
// their 3420 s in hand when the host is in one of its slow periods.
type workloadSpec struct {
	name               string
	opsPerWindowPerSec int
	wire               bool // through client -> wire -> server; else in process
	schema             schema
	insertsPerOp       int // rows an acked op adds
	layer              string
	why                string
}

var workloads = []workloadSpec{
	{name: "oltp_wire", opsPerWindowPerSec: 1000, wire: true, insertsPerOp: 1, layer: "client",
		why: "6-round-trip transaction through client/wire/server: most of its time is the service layer, so a client, wire or server change shows here"},
	{name: "oltp_inproc", opsPerWindowPerSec: 3125, insertsPerOp: 1, layer: "sqlfront",
		why: "the same op stream on sqlfront in process, bypassing client/wire/server: an engine change must move it more than oltp_wire, a service-layer change not at all"},
	{name: "scan_wire", opsPerWindowPerSec: 750, wire: true, schema: scanTable, layer: "client",
		why: "update then 100-row prefix scan (11 KB results, every 10th by cursor): result encoding, ScanPrefix and MVCC over fresh version chains, so a point-write gain that costs scans shows"},
	{name: "ingest_recover", opsPerWindowPerSec: 50, insertsPerOp: ingestBatch, layer: "sqlfront",
		why: "in-process bulk load, 128 inserts per commit, checkpoint, then recovery: log bandwidth, group commit, checkpoint and replay do the work, the front end almost none"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec is one catalogue entry; BENCHMARK.json must list the same
// names and units (a test compares them).
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of the parent's median
}

// endToEnd is what a user of the database sees, as far as this host lets
// the pipeline gate on it. fail_ratio is not in the list because it must be
// 0 and the contract wants metrics that never are: it is the result line's
// failed / attempted.
//
// The clock metrics carry the contract's widest bound. On a quiet host their
// same-code spread is 3-7 %, but this shared 2-vCPU guest slows runs by
// 10-30 % for seconds to tens of minutes at a time (README, "Bounds"), and a
// bound tighter than that rejects unchanged code. The counts (allocations,
// log bytes, heap) do not see the host and keep the tight bounds that make
// them the resolving metrics.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"log_bytes_per_user_byte", "ratio", "lower", 0.01},
	{"heap_mb", "MB", "lower", 0.03},
	{"recover_s", "s", "lower", 0.25},
}

// ungated are measured and printed by every untraced run but are not in the
// contract's end_to_end list: over ten same-code runs their spread reached
// 24-25 % in a disturbed hour (a slow host raises the median latency by
// twice what it takes off throughput), which the pipeline's spread check
// would reject half the time. The traced run reports them per layer as
// stack.op_p50_us and stack.cpu_us_per_op.
var ungated = []metricSpec{
	{name: "op_p50_us", unit: "us", better: "lower"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
}

// perLayer is the ledger: layer = the module's name. They carry no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	ms := []metricSpec{
		{name: "stack.op_p50_us", unit: "us", better: "lower"},
		{name: "stack.cpu_us_per_op", unit: "us", better: "lower"},
		{name: "client.call_p50_us", unit: "us", better: "lower"},
		{name: "client.commit_p50_us", unit: "us", better: "lower"},
		{name: "client.ping_rtt_p50_us", unit: "us", better: "lower"},
		{name: "client.net_residual_p50_us", unit: "us", better: "lower"},
		{name: "client.unexplained_p50_us", unit: "us", better: "lower"},
		{name: "client.op_p50_us", unit: "us", better: "lower"},
		{name: "client.op_p99_us", unit: "us", better: "lower"},
		{name: "client.retries", unit: "count", better: "lower"},
	}
	for s := 0; s < obs.NumStages; s++ {
		ms = append(ms, metricSpec{name: "server.stage." + obs.Stage(s).String() + "_p50_us", unit: "us", better: "lower"})
	}
	return append(ms, []metricSpec{
		{name: "server.total_p50_us", unit: "us", better: "lower"},
		{name: "server.requests_per_op", unit: "count", better: "lower"},
		{name: "server.bytes_in_per_op", unit: "B", better: "lower"},
		{name: "server.bytes_out_per_op", unit: "B", better: "lower"},
		{name: "server.busy_rejects", unit: "count", better: "lower"},
		{name: "server.slot_wait_busy", unit: "count", better: "lower"},

		{name: "wire.req_codec_ns", unit: "ns", better: "lower"},
		{name: "wire.resp_codec_point_ns", unit: "ns", better: "lower"},
		{name: "wire.resp_codec_scan_ns", unit: "ns", better: "lower"},
		{name: "wire.codec_allocs_per_frame", unit: "count", better: "lower"},

		{name: "sqlfront.call_p50_us", unit: "us", better: "lower"},
		{name: "sqlfront.commit_p50_us", unit: "us", better: "lower"},
		{name: "sqlfront.exec_text_ns", unit: "ns", better: "lower"},
		{name: "sqlfront.exec_stmt_ns", unit: "ns", better: "lower"},
		{name: "sqlfront.parse_miss_ns", unit: "ns", better: "lower"},
		{name: "sqlfront.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "sqlfront.allocs_per_stmt", unit: "count", better: "lower"},

		{name: "core.get_ns", unit: "ns", better: "lower"},
		{name: "core.update_ns", unit: "ns", better: "lower"},
		{name: "core.insert_ns", unit: "ns", better: "lower"},
		{name: "core.scan_ns_per_row", unit: "ns", better: "lower"},
		{name: "core.precommit_ns", unit: "ns", better: "lower"},
		{name: "core.commit_sync_us", unit: "us", better: "lower"},
		{name: "core.gc_reclaimed_per_op", unit: "count", better: "higher"},
		{name: "core.gc_pause_mean_us", unit: "us", better: "lower"},
		{name: "core.conflicts", unit: "count", better: "lower"},
		{name: "core.checkpoint_s", unit: "s", better: "lower"},
		{name: "core.checkpoint_entries", unit: "count", better: "lower"},
		{name: "core.recover_replay_s", unit: "s", better: "lower"},
		{name: "core.recover_index_s", unit: "s", better: "lower"},
		{name: "core.recover_records", unit: "count", better: "lower"},
		{name: "core.recover_segments", unit: "count", better: "lower"},

		{name: "index.get_ns", unit: "ns", better: "lower"},
		{name: "index.insert_ns", unit: "ns", better: "lower"},
		{name: "index.scan_ns_per_key", unit: "ns", better: "lower"},
		{name: "pia.get_ns", unit: "ns", better: "lower"},
		{name: "pia.alloc_ns", unit: "ns", better: "lower"},

		{name: "wal.append_sync_us", unit: "us", better: "lower"},
		{name: "wal.append_mbps", unit: "MB/s", better: "higher"},
		{name: "wal.batch_txns_mean", unit: "count", better: "higher"},
		{name: "wal.appends_per_op", unit: "count", better: "lower"},
		{name: "wal.log_bytes_per_op", unit: "B", better: "lower"},
		{name: "wal.rotates", unit: "count", better: "lower"},
		{name: "wal.append_retries", unit: "count", better: "lower"},

		{name: "srss.append_4k_us", unit: "us", better: "lower"},
		{name: "srss.read_256b_ns", unit: "ns", better: "lower"},
		{name: "srss.appends_per_op", unit: "count", better: "lower"},
		{name: "srss.append_bytes_per_user_byte", unit: "ratio", better: "lower"},

		{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
		{name: "go.gc_cycles", unit: "count", better: "lower"},
		{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
		{name: "host.spin_ms", unit: "ms", better: "lower"},
		{name: "host.window_spread_pct", unit: "%", better: "lower"},
	}...)
}
