package server

import (
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/obs"
	"hiengine/internal/wal"
	"hiengine/internal/wire"
)

// awaitPublished polls until published() holds, for at most two seconds: the
// server finishes (and so publishes) a trace just after it has written the
// response, so a client that already holds the response can be ahead of
// the ring.
func awaitPublished(published func() bool) {
	for end := time.Now().Add(2 * time.Second); !published() && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
}

// traceHarness builds a deployment whose server traces requests with cfg.
func traceHarness(t *testing.T, model *delay.Model, tcfg obs.TracerConfig, eng *chaos.Engine) (*harness, *obs.Tracer) {
	t.Helper()
	var tracer *obs.Tracer
	h := newHarnessModel(t, model, func(cfg *Config) {
		tcfg.Registry = cfg.Obs
		tracer = obs.NewTracer(tcfg)
		cfg.Tracer = tracer
	}, eng)
	return h, tracer
}

// TestRemoteTracedTransactionStages is the tracing acceptance path: one
// remote BEGIN..INSERT..COMMIT transaction, traced end to end, must come
// back with a stage breakdown spanning every layer of the commit pipeline
// -- server (frame read, respond), sqlfront (plan cache, exec), wal
// (enqueue, group commit, durable) and srss (replication) -- with
// monotonically ordered stage start times and nonzero durations.
func TestRemoteTracedTransactionStages(t *testing.T) {
	h, tracer := traceHarness(t, delay.CloudProfile(), obs.TracerConfig{SampleEvery: 1}, nil)
	cl := h.client(t, nil)

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Trace(true)

	if _, err := s.Exec("CREATE TABLE kv (k INT, v TEXT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO kv VALUES (?, ?)", core.I(1), core.S("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	lt := s.LastTrace()
	if lt == nil {
		t.Fatal("no trace returned for traced transaction")
	}
	info := lt.Info
	if info.TotalNS <= 0 {
		t.Fatalf("trace total = %d, want > 0", info.TotalNS)
	}
	if lt.ClientNS < info.TotalNS {
		t.Fatalf("client wall time %d < server total %d", lt.ClientNS, info.TotalNS)
	}

	// The server publishes the completed record to the recent ring; there
	// the respond stage has its final duration (the stage-timing block on
	// the wire is necessarily encoded before the response write finishes,
	// so the client's view reports respond as in-progress).
	var rec *obs.TraceRecord
	awaitPublished(func() bool {
		for _, r := range tracer.Recent() {
			if r.ID == info.TraceID {
				rec = r
			}
		}
		return rec != nil
	})
	if rec == nil {
		t.Fatalf("trace %d not in recent ring", info.TraceID)
	}

	// The pipeline stages every committed transaction must traverse, at
	// least one from each instrumented layer.
	required := []obs.Stage{
		obs.StagePlanCache, obs.StageExec, // sqlfront
		obs.StageWALEnqueue, obs.StageGroupCommit, obs.StageDurable, // wal
		obs.StageSRSSReplicate, // srss
		obs.StageRespond,       // server
	}
	seen := make(map[obs.Stage]int64, len(rec.Stages))
	distinct := 0
	for _, st := range rec.Stages {
		if _, dup := seen[st.Stage]; dup {
			t.Fatalf("stage %v reported twice", st.Stage)
		}
		seen[st.Stage] = st.DurNS
		if st.DurNS > 0 {
			distinct++
		}
	}
	if distinct < 6 {
		t.Fatalf("want >= 6 distinct stages with nonzero durations, got %d: %+v", distinct, rec.Stages)
	}
	for _, want := range required {
		d, ok := seen[want]
		if !ok {
			t.Fatalf("stage %v missing from trace: %+v", want, rec.Stages)
		}
		if d <= 0 {
			t.Fatalf("stage %v duration = %d, want > 0", want, d)
		}
	}
	// Stage start offsets must be monotone in pipeline (enum) order: the
	// transaction flows forward through the pipeline.
	for i := 1; i < len(rec.Stages); i++ {
		prev, cur := rec.Stages[i-1], rec.Stages[i]
		if cur.BeginNS < prev.BeginNS {
			t.Fatalf("stage %v begins at %d, before prior stage %v at %d",
				cur.Stage, cur.BeginNS, prev.Stage, prev.BeginNS)
		}
		if cur.BeginNS > rec.TotalNS || cur.BeginNS+cur.DurNS > rec.TotalNS+int64(time.Millisecond) {
			t.Fatalf("stage %v [%d +%d] exceeds total %d", cur.Stage, cur.BeginNS, cur.DurNS, rec.TotalNS)
		}
	}
	if !rec.PlanHit && !rec.PlanMiss || !info.PlanHit && !info.PlanMiss {
		t.Fatalf("trace carries no plan-cache outcome: %+v", rec)
	}
	if rec.Batch < 1 || info.Batch < 1 {
		t.Fatalf("commit batch = %d/%d, want >= 1", rec.Batch, info.Batch)
	}
	// The client's wire-delivered view must agree with the ring on the
	// stage set (respond aside, durations there are snapshots in flight).
	if len(info.Stages) != len(rec.Stages) {
		t.Fatalf("client stage count %d != ring stage count %d", len(info.Stages), len(rec.Stages))
	}
	for i := range info.Stages {
		if info.Stages[i].Stage != rec.Stages[i].Stage {
			t.Fatalf("stage %d: client %v != ring %v", i, info.Stages[i].Stage, rec.Stages[i].Stage)
		}
	}
}

// TestTraceSlowCaptureUnderChaos asserts tail capture: with head sampling
// effectively off, a transaction slowed by an injected WAL-flush delay must
// still land in the slow-trace ring because it crossed the slow threshold.
func TestTraceSlowCaptureUnderChaos(t *testing.T) {
	eng := chaos.New(7)
	eng.Arm(chaos.Rule{Site: wal.SiteFlushBefore, Action: chaos.Delay, Delay: 20 * time.Millisecond, Prob: 1, Count: 1})
	h, tracer := traceHarness(t, delay.Zero(), obs.TracerConfig{
		SampleEvery:   1 << 30, // head sampling will never pick a request
		SlowThreshold: 5 * time.Millisecond,
	}, eng)
	cl := h.client(t, nil)

	// Note: no Session.Trace(true) -- nothing forces this trace; only the
	// slow threshold can publish it.
	if _, err := cl.Exec("CREATE TABLE slowkv (k INT, v TEXT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO slowkv VALUES (?, ?)", core.I(1), core.S("delayed")); err != nil {
		t.Fatal(err)
	}

	awaitPublished(func() bool { return len(tracer.Slow()) > 0 })
	slow := tracer.Slow()
	if len(slow) == 0 {
		t.Fatal("chaos-delayed transaction missing from slow ring")
	}
	rec := slow[len(slow)-1]
	if !rec.Slow || rec.Sampled || rec.Forced {
		t.Fatalf("slow capture flags = %+v, want slow-only", rec)
	}
	if rec.TotalNS < (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("slow trace total = %dns, below threshold", rec.TotalNS)
	}
	var groupCommit int64
	for _, st := range rec.Stages {
		if st.Stage == obs.StageGroupCommit {
			groupCommit = st.DurNS
		}
	}
	if groupCommit < (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("injected 20ms flush delay not attributed to group commit: %+v", rec.Stages)
	}
}

// TestTraceUntracedSessionUnaffected asserts a tracer with sampling off and
// no slow threshold adds nothing to responses: the client sees no trace.
func TestTraceUntracedSessionUnaffected(t *testing.T) {
	h, tracer := traceHarness(t, delay.Zero(), obs.TracerConfig{}, nil)
	cl := h.client(t, nil)

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE plain (k INT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	if lt := s.LastTrace(); lt != nil {
		t.Fatalf("untraced session got trace %+v", lt.Info)
	}
	if got := len(tracer.Recent()); got != 0 {
		t.Fatalf("recent ring has %d records with sampling off", got)
	}

	// A client-forced trace still works against the same tracer.
	s.Trace(true)
	if _, err := s.Exec("INSERT INTO plain VALUES (?)", core.I(1)); err != nil {
		t.Fatal(err)
	}
	lt := s.LastTrace()
	if lt == nil || !lt.Info.PlanMiss && !lt.Info.PlanHit {
		t.Fatalf("forced trace missing or empty: %+v", lt)
	}
	awaitPublished(func() bool { return len(tracer.Recent()) > 0 })
	recent := tracer.Recent()
	if len(recent) != 1 || !recent[0].Forced {
		t.Fatalf("forced trace not in recent ring: %+v", recent)
	}
	if recent[0].ID != lt.Info.TraceID {
		t.Fatalf("trace id mismatch: ring %d, client %d", recent[0].ID, lt.Info.TraceID)
	}
}

// TestStreamedScanTraceStages is the cursor-trace regression: a traced
// streaming SELECT must attribute the snapshot pin (cursor_open) and page
// production (cursor_produce) on the open unit, and later page fetches
// must carry cursor_produce without re-reporting cursor_open.
func TestStreamedScanTraceStages(t *testing.T) {
	h, tracer := traceHarness(t, delay.Zero(), obs.TracerConfig{SampleEvery: 1}, nil)
	cl := h.client(t, func(o *client.Options) { o.FetchSize = 16 })

	s, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE scantrace (id INT, v TEXT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	const rows = 64
	stmts := make([]wire.BatchStmt, rows)
	for i := range stmts {
		stmts[i] = wire.BatchStmt{SQL: "INSERT INTO scantrace VALUES (?, 'v')",
			Args: []core.Value{core.I(int64(i))}}
	}
	if _, err := cl.ExecBatch(stmts); err != nil {
		t.Fatal(err)
	}

	s.Trace(true)
	rs, err := s.Query("SELECT * FROM scantrace")
	if err != nil {
		t.Fatal(err)
	}
	lt := s.LastTrace()
	if lt == nil {
		t.Fatal("no trace returned for traced scan open")
	}
	stages := func(ti *wire.TraceInfo) map[obs.Stage]int64 {
		m := make(map[obs.Stage]int64, len(ti.Stages))
		for _, st := range ti.Stages {
			m[st.Stage] = st.DurNS
		}
		return m
	}
	open := stages(lt.Info)
	if d, ok := open[obs.StageCursorOpen]; !ok || d <= 0 {
		t.Fatalf("cursor_open stage missing or zero on scan open: %+v", lt.Info.Stages)
	}
	if d, ok := open[obs.StageCursorProduce]; !ok || d <= 0 {
		t.Fatalf("cursor_produce stage missing or zero on scan open: %+v", lt.Info.Stages)
	}

	n := 0
	for rs.Next() {
		n++
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("streamed %d rows, want %d", n, rows)
	}

	// With 64 rows at fetch size 16, the drain issued pure page fetches:
	// their units must report page production but never a second open.
	var nextSeen bool
	for _, rec := range tracer.Recent() {
		if rec.Op != wire.OpScanNext.String() {
			continue
		}
		nextSeen = true
		var produce, openDur int64
		for _, st := range rec.Stages {
			switch st.Stage {
			case obs.StageCursorProduce:
				produce = st.DurNS
			case obs.StageCursorOpen:
				openDur = st.DurNS
			}
		}
		if produce <= 0 {
			t.Fatalf("scan_next trace lacks cursor_produce: %+v", rec.Stages)
		}
		if openDur != 0 {
			t.Fatalf("scan_next trace re-reports cursor_open: %+v", rec.Stages)
		}
	}
	if !nextSeen {
		t.Fatal("no scan_next trace in the recent ring")
	}
}

// TestPerOpcodeMetrics asserts every served opcode lands in its own
// server.op.<name> histogram: the _count series is the request count and
// the samples are that opcode's latency.
func TestPerOpcodeMetrics(t *testing.T) {
	h := newHarness(t, nil, nil)
	cl := h.client(t, nil)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("CREATE TABLE opm (k INT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO opm VALUES (?)", core.I(1)); err != nil {
		t.Fatal(err)
	}

	// A request's latency is recorded once its response is written, so the
	// INSERT's may land just after the client has read the answer: wait for it.
	var counts map[string]int64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		counts = make(map[string]int64)
		for _, m := range h.reg.Snapshot().Metrics {
			if m.Hist != nil {
				counts[m.Name] = m.Hist.Count
			}
		}
		if counts["server.op."+wire.OpExec.String()] >= 2 || time.Now().After(deadline) {
			break
		}
	}
	if got := counts["server.op."+wire.OpPing.String()]; got < 1 {
		t.Fatalf("server.op.ping count = %d, want >= 1", got)
	}
	if got := counts["server.op."+wire.OpExec.String()]; got < 2 {
		t.Fatalf("server.op.exec count = %d, want >= 2 (create + insert)", got)
	}
	if got := counts["server.op."+wire.OpScanOpen.String()]; got != 0 {
		t.Fatalf("server.op.scan_open count = %d, want 0 (no scans ran)", got)
	}
}
