// Per-request stage tracing: a pooled, allocation-free-on-hot-path span
// recorder for the commit pipeline.
//
// HiEngine's headline claim is microsecond commit latency from compute-side
// log persistence and commit pipelining; aggregate histograms cannot say
// *where* a slow commit spent its time. A Trace attributes one request's
// wall time to a fixed enum of pipeline stages (frame read, worker-slot
// admission, plan cache, execution, WAL enqueue, group-commit flush, SRSS
// replication fan-out, durability callback, respond). Stage accounting is a
// fixed array of monotonic-clock deltas — no maps, no slices, no locks —
// and Trace objects are pooled, so the traced hot path does not allocate.
//
// Sampling follows the Dapper model: 1-in-N head sampling decided at Start,
// plus tail capture of any trace whose total latency crosses a slow-query
// threshold (so the outliers that motivate tracing are never sampled away),
// plus client-forced traces (the wire protocol carries a trace id). Every
// finished trace — sampled or not — feeds per-stage duration histograms in
// the shared Registry, so aggregates come for free; only published traces
// materialize a TraceRecord into the lock-free recent/slow ring buffers.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage. The numeric order is the pipeline
// order: a correctly instrumented trace has non-decreasing stage begin
// offsets in enum order. Values are wire-stable (the server returns stage
// timings to the client on traced responses); append only.
type Stage uint8

// Pipeline stages, in pipeline order.
const (
	// StageFrameRead: reading one request frame off the connection.
	StageFrameRead Stage = iota
	// StageSlotWait: admission — waiting to lease a worker slot.
	StageSlotWait
	// StagePlanCache: SQL-text plan-cache lookup (and compile on miss).
	StagePlanCache
	// StageExec: executing the compiled statement against the engine.
	StageExec
	// StageWALEnqueue: commit log record queued, waiting for the group
	// committer to pick it up.
	StageWALEnqueue
	// StageGroupCommit: group-commit flush — batch concat + segment append,
	// excluding the replication fan-out (reported separately).
	StageGroupCommit
	// StageSRSSReplicate: SRSS replication fan-out inside the flush.
	StageSRSSReplicate
	// StageDurable: from durability to the commit callback running.
	StageDurable
	// StageRespond: encoding + writing the response frame.
	StageRespond
	// StageCursorOpen: opening a streaming cursor — planning the SELECT and
	// starting its producer goroutine (OpScanOpen). Appended after
	// StageRespond for wire stability, so cursor traces are the one case
	// where enum order is not strict pipeline order.
	StageCursorOpen
	// StageCursorProduce: pulling rows from the cursor's producer for one
	// page (OpScanOpen's first page and every OpScanNext).
	StageCursorProduce

	// NumStages is the number of pipeline stages.
	NumStages = int(StageCursorProduce) + 1
)

// stageNames uses only Prometheus/identifier-safe characters.
var stageNames = [NumStages]string{
	"frame_read",
	"slot_wait",
	"plan_cache",
	"exec",
	"wal_enqueue",
	"group_commit",
	"srss_replicate",
	"durable",
	"respond",
	"cursor_open",
	"cursor_produce",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// stageSpan accumulates one stage inside a Trace. A stage may be entered
// several times (e.g. plan_cache once per statement of a transaction);
// beginNS keeps the first entry offset and durNS the accumulated time.
type stageSpan struct {
	begun   bool
	open    bool
	openNS  int64 // Since() at the pending Begin
	beginNS int64 // Since() at the first Begin
	durNS   int64 // accumulated duration
}

// Trace records one request's stage timings. It is owned by exactly one
// goroutine at a time; ownership transfers (conn goroutine → WAL group
// committer → durability callback) must happen through a channel send or
// equivalent happens-before edge. All methods are nil-receiver safe so
// untraced requests pay a single branch.
type Trace struct {
	tr       *Tracer
	id       uint64
	t0       time.Time
	forced   bool // client-requested: always published
	sampled  bool // head-sampled at Start
	planHit  bool
	planMis  bool
	hasShard bool   // shard identity tagged (SetShard)
	hop      uint32 // span id within a distributed trace (0 = untagged)
	shard    uint32 // reporting node's shard id, valid iff hasShard
	batch    int32  // group-commit batch size (txns), 0 if never set
	op       string // terminal opcode name (last tagged wins)
	stages   [NumStages]stageSpan
}

// ID returns the trace id (0 for nil).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Since returns nanoseconds elapsed since the trace started.
func (t *Trace) Since() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// Begin marks stage s as entered now. Unbalanced or repeated Begins are
// tolerated (the previous open interval is closed first).
func (t *Trace) Begin(s Stage) {
	if t == nil {
		return
	}
	now := t.Since()
	sp := &t.stages[s]
	if sp.open {
		sp.durNS += now - sp.openNS
	}
	if !sp.begun {
		sp.begun = true
		sp.beginNS = now
	}
	sp.open = true
	sp.openNS = now
}

// End closes the open interval of stage s, accumulating its duration.
// An End without a matching Begin is a no-op.
func (t *Trace) End(s Stage) {
	if t == nil {
		return
	}
	sp := &t.stages[s]
	if !sp.open {
		return
	}
	sp.open = false
	sp.durNS += t.Since() - sp.openNS
}

// AddSpan records a completed interval for stage s at an explicit offset,
// for stages measured by a sub-component (e.g. replication time measured
// inside the group-commit flush).
func (t *Trace) AddSpan(s Stage, beginNS, durNS int64) {
	if t == nil {
		return
	}
	sp := &t.stages[s]
	if !sp.begun {
		sp.begun = true
		sp.beginNS = beginNS
	}
	sp.durNS += durNS
}

// Adjust adds delta to stage s's accumulated duration (used to carve a
// sub-span out of an enclosing stage: Adjust(enclosing, -subDur)).
func (t *Trace) Adjust(s Stage, delta int64) {
	if t == nil {
		return
	}
	sp := &t.stages[s]
	if sp.begun {
		sp.durNS += delta
		if sp.durNS < 0 {
			sp.durNS = 0
		}
	}
}

// PlanCache records a plan-cache hit or miss.
func (t *Trace) PlanCache(hit bool) {
	if t == nil {
		return
	}
	if hit {
		t.planHit = true
	} else {
		t.planMis = true
	}
}

// SetBatch records the group-commit batch size (in transactions) this
// trace's commit rode in.
func (t *Trace) SetBatch(n int) {
	if t == nil {
		return
	}
	t.batch = int32(n)
}

// Batch returns the recorded group-commit batch size (0 if never set).
func (t *Trace) Batch() int {
	if t == nil {
		return 0
	}
	return int(t.batch)
}

// SetHop tags the trace with its span id within a distributed trace (the
// hop id carried on the request frame).
func (t *Trace) SetHop(h uint32) {
	if t == nil {
		return
	}
	t.hop = h
}

// Hop returns the tagged hop id (0 for nil or untagged).
func (t *Trace) Hop() uint32 {
	if t == nil {
		return 0
	}
	return t.hop
}

// SetShard tags the trace with the reporting node's shard id.
func (t *Trace) SetShard(id uint32) {
	if t == nil {
		return
	}
	t.shard = id
	t.hasShard = true
}

// Shard returns the tagged shard id, if any.
func (t *Trace) Shard() (uint32, bool) {
	if t == nil {
		return 0, false
	}
	return t.shard, t.hasShard
}

// SetOp tags the trace with an opcode name; the last tag (the traced
// unit's terminal request) wins.
func (t *Trace) SetOp(name string) {
	if t == nil {
		return
	}
	t.op = name
}

// Op returns the tagged opcode name ("" for nil or untagged).
func (t *Trace) Op() string {
	if t == nil {
		return ""
	}
	return t.op
}

// PlanCacheSeen reports whether the trace saw plan-cache hits / misses.
func (t *Trace) PlanCacheSeen() (hit, miss bool) {
	if t == nil {
		return false, false
	}
	return t.planHit, t.planMis
}

// VisitStages calls fn for every begun stage in pipeline (enum) order.
// Open stages are reported with their accumulated duration so far.
func (t *Trace) VisitStages(fn func(s Stage, beginNS, durNS int64)) {
	if t == nil {
		return
	}
	for i := 0; i < NumStages; i++ {
		sp := &t.stages[i]
		if sp.begun {
			fn(Stage(i), sp.beginNS, sp.durNS)
		}
	}
}

// reset clears the trace for reuse.
func (t *Trace) reset() {
	t.id = 0
	t.forced = false
	t.sampled = false
	t.planHit = false
	t.planMis = false
	t.hasShard = false
	t.hop = 0
	t.shard = 0
	t.batch = 0
	t.op = ""
	for i := range t.stages {
		t.stages[i] = stageSpan{}
	}
}

// Finish completes the trace: total and per-stage durations feed the
// tracer's histograms unconditionally; a TraceRecord is materialized into
// the ring buffers only if the trace was head-sampled, client-forced, or
// crossed the slow threshold. The trace is returned to the pool — the
// caller must not touch it afterwards.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	tr := t.tr
	total := t.Since()
	tr.mTotal.Record(total)
	for i := 0; i < NumStages; i++ {
		if sp := &t.stages[i]; sp.begun {
			d := sp.durNS
			if sp.open {
				d += total - sp.openNS
			}
			tr.mStage[i].Record(d)
		}
	}
	tr.mFinished.Inc()
	slow := tr.cfg.SlowThreshold > 0 && total >= int64(tr.cfg.SlowThreshold)
	if t.sampled || t.forced || slow {
		rec := t.record(total, slow)
		tr.recent.push(rec)
		if slow {
			tr.slow.push(rec)
			tr.mSlow.Inc()
		}
		tr.mPublished.Inc()
	}
	t.reset()
	tr.pool.Put(t)
}

// Discard returns an unfinished trace to the pool without recording
// anything (connection teardown mid-request).
func (t *Trace) Discard() {
	if t == nil {
		return
	}
	t.reset()
	t.tr.pool.Put(t)
}

// record materializes an immutable TraceRecord (allocates; off hot path).
func (t *Trace) record(total int64, slow bool) *TraceRecord {
	rec := &TraceRecord{
		ID:       t.id,
		Hop:      t.hop,
		Shard:    t.shard,
		HasShard: t.hasShard,
		Op:       t.op,
		Start:    t.t0,
		TotalNS:  total,
		Batch:    int(t.batch),
		PlanHit:  t.planHit,
		PlanMiss: t.planMis,
		Forced:   t.forced,
		Sampled:  t.sampled,
		Slow:     slow,
	}
	for i := 0; i < NumStages; i++ {
		if sp := &t.stages[i]; sp.begun {
			d := sp.durNS
			if sp.open {
				d += total - sp.openNS
			}
			rec.Stages = append(rec.Stages, StageSpan{
				Stage: Stage(i), Name: Stage(i).String(),
				BeginNS: sp.beginNS, DurNS: d,
			})
		}
	}
	return rec
}

// StageSpan is one stage of a completed trace.
type StageSpan struct {
	Stage   Stage  `json:"-"`
	Name    string `json:"stage"`
	BeginNS int64  `json:"begin_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// TraceRecord is an immutable completed trace, as published to the rings.
type TraceRecord struct {
	ID       uint64      `json:"id"`
	Hop      uint32      `json:"hop,omitempty"`
	Shard    uint32      `json:"shard"`
	HasShard bool        `json:"has_shard,omitempty"`
	Op       string      `json:"op,omitempty"`
	Start    time.Time   `json:"start"`
	TotalNS  int64       `json:"total_ns"`
	Batch    int         `json:"batch,omitempty"`
	PlanHit  bool        `json:"plan_hit,omitempty"`
	PlanMiss bool        `json:"plan_miss,omitempty"`
	Forced   bool        `json:"forced,omitempty"`
	Sampled  bool        `json:"sampled,omitempty"`
	Slow     bool        `json:"slow,omitempty"`
	Stages   []StageSpan `json:"stages"`
}

// DistHopRecord is one participant's contribution to an assembled
// distributed trace: the hop id the coordinator stamped on the request,
// the shard that answered, and that shard's stage timings.
type DistHopRecord struct {
	Hop      uint32      `json:"hop"`
	Shard    uint32      `json:"shard"`
	HasShard bool        `json:"has_shard,omitempty"`
	Op       string      `json:"op"`
	BeginNS  int64       `json:"begin_ns"` // send offset from the trace start
	RTTNS    int64       `json:"rtt_ns"`   // coordinator-observed round trip
	ServerNS int64       `json:"server_ns"`
	Stages   []StageSpan `json:"stages,omitempty"`
}

// DistTraceRecord is one assembled multi-hop distributed transaction
// trace: the coordinator's wall time decomposed into the 2PC phases, plus
// every participant hop's tagged stage timings.
type DistTraceRecord struct {
	TraceID   uint64          `json:"id"`
	Start     time.Time       `json:"start"`
	TotalNS   int64           `json:"total_ns"`
	PrepareNS int64           `json:"prepare_ns,omitempty"`
	DecideNS  int64           `json:"decide_ns,omitempty"`
	FanoutNS  int64           `json:"fanout_ns,omitempty"`
	Shards    int             `json:"shards"`
	Slow      bool            `json:"slow,omitempty"`
	Hops      []DistHopRecord `json:"hops"`
}

// ring is a lock-free overwrite-on-wrap buffer of completed records.
type ring[T any] struct {
	slots []atomic.Pointer[T]
	cur   atomic.Uint64 // next slot index
}

func newRing[T any](n int) ring[T] {
	if n <= 0 {
		n = defaultRingSize
	}
	// Round up to a power of two so index masking is a single AND.
	size := 1
	for size < n {
		size <<= 1
	}
	return ring[T]{slots: make([]atomic.Pointer[T], size)}
}

func (r *ring[T]) push(rec *T) {
	i := r.cur.Add(1) - 1
	r.slots[i&uint64(len(r.slots)-1)].Store(rec)
}

// dump returns the ring contents, oldest first.
func (r *ring[T]) dump() []*T {
	n := len(r.slots)
	cur := r.cur.Load()
	out := make([]*T, 0, n)
	for k := 0; k < n; k++ {
		if rec := r.slots[(cur+uint64(k))&uint64(n-1)].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// defaultRingSize is the default capacity of the recent and slow rings.
const defaultRingSize = 256

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// SampleEvery head-samples 1 in N traces (0 disables head sampling).
	SampleEvery int
	// SlowThreshold always publishes traces at least this slow (0 disables).
	SlowThreshold time.Duration
	// RingSize is the capacity of the recent and slow rings (rounded up to
	// a power of two; default 256).
	RingSize int
	// Registry receives the per-stage and total duration histograms and
	// tracer counters (nil for none — histograms become no-ops).
	Registry *Registry
}

// Tracer creates, samples, and collects Traces.
type Tracer struct {
	cfg    TracerConfig
	seq    atomic.Uint64 // head-sampling counter
	idSeq  atomic.Uint64 // server-generated trace ids
	pool   sync.Pool
	recent ring[TraceRecord]
	slow   ring[TraceRecord]
	dist   ring[DistTraceRecord]

	mStarted       *Counter
	mFinished      *Counter
	mPublished     *Counter
	mSlow          *Counter
	mDistPublished *Counter
	mTotal         *Histogram
	mStage         [NumStages]*Histogram
}

// NewTracer builds a Tracer. A nil return is never produced; callers that
// want tracing off hold a nil *Tracer instead.
func NewTracer(cfg TracerConfig) *Tracer {
	t := &Tracer{cfg: cfg}
	t.recent = newRing[TraceRecord](cfg.RingSize)
	t.slow = newRing[TraceRecord](cfg.RingSize)
	t.dist = newRing[DistTraceRecord](cfg.RingSize)
	t.pool.New = func() any { return &Trace{tr: t} }
	r := cfg.Registry
	t.mStarted = r.Counter("trace.started")
	t.mFinished = r.Counter("trace.finished")
	t.mPublished = r.Counter("trace.published")
	t.mSlow = r.Counter("trace.slow")
	t.mDistPublished = r.Counter("trace.dist_published")
	t.mTotal = r.Histogram("trace.total_ns")
	for i := 0; i < NumStages; i++ {
		t.mStage[i] = r.Histogram("trace.stage." + stageNames[i] + "_ns")
	}
	return t
}

// Start begins a trace for one request. id is the client-provided trace id
// when forced (0 lets the tracer assign one). Returns nil — zero further
// overhead — on a nil tracer, or when the request is neither forced nor
// head-sampled and no slow threshold is set: with every publish sink off,
// stage bookkeeping would buy nothing, so "tracing compiled in, sampling
// off" costs one atomic add per request. When a slow threshold is set the
// trace must be measured even if unsampled, since slowness is only known
// at Finish.
func (tr *Tracer) Start(id uint64, forced bool) *Trace {
	if tr == nil {
		return nil
	}
	sampled := false
	if n := tr.cfg.SampleEvery; n > 0 {
		sampled = tr.seq.Add(1)%uint64(n) == 0
	}
	if !forced && !sampled && tr.cfg.SlowThreshold <= 0 {
		// No sink can ever publish this trace; skip the bookkeeping
		// entirely so "tracing on, sampling off" is nearly free.
		return nil
	}
	t := tr.pool.Get().(*Trace)
	t.t0 = time.Now()
	t.forced = forced
	t.sampled = sampled
	if id == 0 {
		id = tr.idSeq.Add(1)
	}
	t.id = id
	tr.mStarted.Inc()
	return t
}

// Recent returns the recent-trace ring, oldest first.
func (tr *Tracer) Recent() []*TraceRecord {
	if tr == nil {
		return nil
	}
	return tr.recent.dump()
}

// Slow returns the slow-trace ring, oldest first.
func (tr *Tracer) Slow() []*TraceRecord {
	if tr == nil {
		return nil
	}
	return tr.slow.dump()
}

// PublishDistributed records one assembled multi-hop distributed trace,
// mirroring Finish's publication policy: a forced (client/coordinator
// requested) tree always publishes; otherwise only trees over the slow
// threshold do. Marks rec.Slow as a side effect.
func (tr *Tracer) PublishDistributed(rec *DistTraceRecord, forced bool) {
	if tr == nil || rec == nil {
		return
	}
	rec.Slow = tr.cfg.SlowThreshold > 0 && rec.TotalNS >= int64(tr.cfg.SlowThreshold)
	if !forced && !rec.Slow {
		return
	}
	tr.dist.push(rec)
	tr.mDistPublished.Inc()
}

// Distributed returns the distributed-trace ring, oldest first.
func (tr *Tracer) Distributed() []*DistTraceRecord {
	if tr == nil {
		return nil
	}
	return tr.dist.dump()
}
