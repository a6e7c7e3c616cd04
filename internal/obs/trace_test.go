package obs

import (
	"testing"
	"time"
)

func TestTraceStageAccounting(t *testing.T) {
	reg := NewRegistry("test")
	tr := NewTracer(TracerConfig{SampleEvery: 1, Registry: reg})

	tc := tr.Start(42, true)
	if tc == nil {
		t.Fatal("Start returned nil with sampling on")
	}
	if tc.ID() != 42 {
		t.Fatalf("ID = %d, want 42", tc.ID())
	}
	tc.Begin(StageFrameRead)
	time.Sleep(time.Millisecond)
	tc.End(StageFrameRead)
	tc.Begin(StagePlanCache)
	tc.PlanCache(false)
	time.Sleep(time.Millisecond)
	tc.End(StagePlanCache)
	tc.Begin(StageExec)
	time.Sleep(time.Millisecond)
	tc.End(StageExec)
	tc.AddSpan(StageSRSSReplicate, tc.Since(), 12345)
	tc.SetBatch(7)
	tc.Finish()

	recs := tr.Recent()
	if len(recs) != 1 {
		t.Fatalf("Recent len = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != 42 || !rec.Forced || rec.Batch != 7 || !rec.PlanMiss || rec.PlanHit {
		t.Fatalf("record fields wrong: %+v", rec)
	}
	if rec.TotalNS < int64(3*time.Millisecond) {
		t.Fatalf("TotalNS = %d, want >= 3ms", rec.TotalNS)
	}
	want := []Stage{StageFrameRead, StagePlanCache, StageExec, StageSRSSReplicate}
	if len(rec.Stages) != len(want) {
		t.Fatalf("stages = %+v, want %v", rec.Stages, want)
	}
	var prevBegin int64 = -1
	for i, sp := range rec.Stages {
		if sp.Stage != want[i] {
			t.Fatalf("stage[%d] = %v, want %v", i, sp.Stage, want[i])
		}
		if sp.Name != want[i].String() {
			t.Fatalf("stage[%d] name = %q, want %q", i, sp.Name, want[i].String())
		}
		if sp.DurNS <= 0 {
			t.Fatalf("stage[%d] dur = %d, want > 0", i, sp.DurNS)
		}
		if sp.BeginNS < prevBegin {
			t.Fatalf("stage[%d] begin %d < previous %d", i, sp.BeginNS, prevBegin)
		}
		prevBegin = sp.BeginNS
	}
	// Per-stage histograms fed regardless of publication.
	if h := reg.Histogram("trace.stage.exec_ns"); h.Count() != 1 {
		t.Fatalf("exec stage histogram count = %d, want 1", h.Count())
	}
	if h := reg.Histogram("trace.total_ns"); h.Count() != 1 {
		t.Fatalf("total histogram count = %d, want 1", h.Count())
	}
}

func TestTraceHeadSampling(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 4})
	published := 0
	for i := 0; i < 16; i++ {
		tc := tr.Start(0, false)
		if tc != nil {
			tc.Begin(StageExec)
			tc.End(StageExec)
			tc.Finish()
			published++
		}
	}
	if published != 4 {
		t.Fatalf("published %d of 16 with SampleEvery=4, want 4", published)
	}
	if got := len(tr.Recent()); got != 4 {
		t.Fatalf("Recent len = %d, want 4", got)
	}
}

func TestTraceSlowCapture(t *testing.T) {
	// Head sampling effectively off; slow threshold catches the trace.
	tr := NewTracer(TracerConfig{SampleEvery: 1 << 30, SlowThreshold: time.Millisecond})
	tc := tr.Start(0, false)
	if tc == nil {
		t.Fatal("Start returned nil despite slow threshold")
	}
	if tc.sampled {
		t.Fatal("trace unexpectedly head-sampled")
	}
	tc.Begin(StageExec)
	time.Sleep(2 * time.Millisecond)
	tc.End(StageExec)
	tc.Finish()
	slow := tr.Slow()
	if len(slow) != 1 || !slow[0].Slow {
		t.Fatalf("Slow ring = %+v, want one slow record", slow)
	}
	if len(tr.Recent()) != 1 {
		t.Fatalf("slow trace should also land in Recent")
	}

	// A fast unsampled trace publishes nothing.
	tc = tr.Start(0, false)
	tc.Begin(StageExec)
	tc.End(StageExec)
	tc.Finish()
	if len(tr.Recent()) != 1 {
		t.Fatal("fast unsampled trace was published")
	}
}

func TestTraceSamplingOffReturnsNil(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	if tc := tr.Start(0, false); tc != nil {
		t.Fatal("Start should return nil with all sinks off")
	}
	// Forced traces are captured even with sampling off.
	if tc := tr.Start(9, true); tc == nil {
		t.Fatal("forced Start returned nil")
	} else {
		tc.Finish()
	}
	if got := len(tr.Recent()); got != 1 {
		t.Fatalf("Recent len = %d, want 1", got)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Tracer
	tc := tr.Start(1, true)
	if tc != nil {
		t.Fatal("nil tracer produced a trace")
	}
	// All methods must be nil-receiver safe.
	tc.Begin(StageExec)
	tc.End(StageExec)
	tc.AddSpan(StageExec, 0, 1)
	tc.Adjust(StageExec, -1)
	tc.PlanCache(true)
	tc.SetBatch(3)
	tc.VisitStages(func(Stage, int64, int64) { t.Fatal("visit on nil") })
	_ = tc.Since()
	_ = tc.ID()
	tc.Finish()
	tc.Discard()
	if tr.Recent() != nil || tr.Slow() != nil {
		t.Fatal("nil tracer rings not nil")
	}
}

func TestTraceRingWraps(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, RingSize: 8})
	for i := 0; i < 100; i++ {
		tc := tr.Start(uint64(i)+1, false)
		tc.Finish()
	}
	recs := tr.Recent()
	if len(recs) != 8 {
		t.Fatalf("ring len = %d, want 8", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(93 + i); rec.ID != want {
			t.Fatalf("ring[%d].ID = %d, want %d (oldest-first)", i, rec.ID, want)
		}
	}
}

func TestTraceAdjustCarvesSubSpan(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	tc := tr.Start(0, false)
	tc.AddSpan(StageGroupCommit, 0, 1000)
	tc.AddSpan(StageSRSSReplicate, 200, 300)
	tc.Adjust(StageGroupCommit, -300)
	tc.Finish()
	rec := tr.Recent()[0]
	if rec.Stages[0].Stage != StageGroupCommit || rec.Stages[0].DurNS != 700 {
		t.Fatalf("group_commit span = %+v, want dur 700", rec.Stages[0])
	}
	if rec.Stages[1].Stage != StageSRSSReplicate || rec.Stages[1].DurNS != 300 {
		t.Fatalf("replicate span = %+v, want dur 300", rec.Stages[1])
	}
}

// TestTraceRecordAllocs gates the hot path: both the sampled-out skip path
// and the measured-but-unpublished path must not allocate.
func TestTraceRecordAllocs(t *testing.T) {
	reg := NewRegistry("alloc")

	// Sampling off entirely: Start returns nil, every method is a branch.
	off := NewTracer(TracerConfig{Registry: reg})
	skip := testing.AllocsPerRun(1000, func() {
		tc := off.Start(0, false)
		tc.Begin(StageFrameRead)
		tc.End(StageFrameRead)
		tc.Finish()
	})
	if skip > 0.05 {
		t.Fatalf("sampling-off path allocates %.2f allocs/op, want 0", skip)
	}

	// Slow threshold set but never crossed: full measurement, pooled trace,
	// nothing published — still zero allocations.
	slow := NewTracer(TracerConfig{SampleEvery: 1 << 30, SlowThreshold: time.Hour, Registry: reg})
	for i := 0; i < 8; i++ { // warm the pool
		slow.Start(0, false).Finish()
	}
	measured := testing.AllocsPerRun(1000, func() {
		tc := slow.Start(0, false)
		tc.Begin(StageFrameRead)
		tc.End(StageFrameRead)
		tc.Begin(StageExec)
		tc.End(StageExec)
		tc.AddSpan(StageSRSSReplicate, 10, 20)
		tc.SetBatch(4)
		tc.Finish()
	})
	if measured > 0.05 {
		t.Fatalf("measured-unpublished path allocates %.2f allocs/op, want 0", measured)
	}
}

func BenchmarkTraceSampledOut(b *testing.B) {
	tr := NewTracer(TracerConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := tr.Start(0, false)
		tc.Begin(StageFrameRead)
		tc.End(StageFrameRead)
		tc.Finish()
	}
}

func BenchmarkTraceMeasured(b *testing.B) {
	tr := NewTracer(TracerConfig{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := tr.Start(0, false)
		tc.Begin(StageFrameRead)
		tc.End(StageFrameRead)
		tc.Begin(StageExec)
		tc.End(StageExec)
		tc.Finish()
	}
}
