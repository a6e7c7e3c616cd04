package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/obs"
)

// Spans are recorded by the harness around its own calls into client and
// sqlfront -- the program's code is not touched -- and kept in memory until
// the run ends. Every span of one op shares the op's id; a call span's
// parent is its op span. On wire workloads the server's stage block, which
// comes back through Session.LastTrace, is attached under the op as
// "server.<stage>" spans placed at the unit's first call plus the stage's
// server-side offset.

type spanName uint8

const (
	spanOp spanName = iota
	spanBegin
	spanSelect
	spanUpdate
	spanInsert
	spanCommit
	spanScan
	spanScanCursor
	spanServerStage0 // + obs.Stage
)

var callNames = [...]string{"op", "begin", "select", "update", "insert", "commit", "scan", "scan_cursor"}

// label is the span's name in the trace file; layer is where the harness
// called in ("client" or "sqlfront").
func (n spanName) label(layer string) string {
	if n >= spanServerStage0 {
		return "server." + obs.Stage(n-spanServerStage0).String()
	}
	if n == spanOp {
		return "op"
	}
	return layer + "." + callNames[n]
}

type span struct {
	op      int32
	name    spanName
	startNS int64 // since the tracer's epoch
	durNS   int64
}

// tracer is one client's span log and per-op server-side sums. A nil
// *tracer records nothing and reads no clock, which is the untraced run.
type tracer struct {
	epoch time.Time
	spans []span

	// Wire workloads: per op, summed over the op's traced units.
	sess      *client.Session
	seen      *client.TraceResult
	unitStart int64
	cur       serverOp
	ops       []serverOp
}

// serverOp is what the server reported for one op's traced units.
type serverOp struct {
	stageNS [obs.NumStages]int64
	totalNS int64
	netNS   int64 // client wall - server total (TraceResult.NetworkNS)
}

func newTracer(epoch time.Time, ops int, sess *client.Session) *tracer {
	t := &tracer{epoch: epoch, spans: make([]span, 0, ops*8), sess: sess}
	if sess != nil {
		t.spans = make([]span, 0, ops*18)
		t.ops = make([]serverOp, 0, ops)
		sess.Trace(true)
	}
	return t
}

// now is the span clock; 0 when untraced.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin reads the span clock before a call; the first call after a traced
// unit completed is where the next unit starts.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	t0 := t.now()
	if t.unitStart == 0 {
		t.unitStart = t0
	}
	return t0
}

// call records a call span that started at t0 and ends now, and collects a
// server stage block if the call completed a traced unit.
func (t *tracer) call(op int, name spanName, t0 int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{op: int32(op), name: name, startNS: t0, durNS: t.now() - t0})
	t.collect(op)
}

// collect attaches a newly completed traced unit's stage block to op. A
// cursor completes one unit per page, so its loop collects after each row.
func (t *tracer) collect(op int) {
	if t == nil || t.sess == nil {
		return
	}
	lt := t.sess.LastTrace()
	if lt == nil || lt == t.seen {
		return
	}
	t.seen = lt
	for _, st := range lt.Info.Stages {
		if int(st.Stage) >= obs.NumStages {
			continue
		}
		t.cur.stageNS[st.Stage] += st.DurNS
		t.spans = append(t.spans, span{op: int32(op), name: spanServerStage0 + spanName(st.Stage),
			startNS: t.unitStart + st.BeginNS, durNS: st.DurNS})
	}
	t.cur.totalNS += lt.Info.TotalNS
	t.cur.netNS += lt.NetworkNS()
	t.unitStart = t.now()
}

// endOp records the op span and closes the op's server-side sums.
func (t *tracer) endOp(op int, t0 int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{op: int32(op), name: spanOp, startNS: t0, durNS: t.now() - t0})
	if t.sess != nil {
		t.ops = append(t.ops, t.cur)
		t.cur = serverOp{}
	}
	t.unitStart = 0
}

// selfNS is a span's duration minus the part of it its children cover.
func selfNS(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].startNS < children[j].startNS })
	covered, end := int64(0), parent.startNS
	pEnd := parent.startNS + parent.durNS
	for _, c := range children {
		s, e := c.startNS, c.startNS+c.durNS
		if s < end {
			s = end
		}
		if e > pEnd {
			e = pEnd
		}
		if e > s {
			covered += e - s
			end = e
		}
	}
	return parent.durNS - covered
}

// traceFile is the layout of out/<workload>.trace.json.
type traceFile struct {
	Workload    string        `json:"workload"`
	Seed        uint64        `json:"seed"`
	Note        string        `json:"note"`
	TracedOps   int           `json:"traced_ops"`
	SampleEvery int           `json:"sample_every"`
	Summary     []spanSummary `json:"summary"`
	Spans       []spanJSON    `json:"spans"`
}

type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50US     float64 `json:"p50_us"`
	SelfP50US float64 `json:"self_p50_us"`
}

type spanJSON struct {
	Client  int    `json:"client"`
	Op      int32  `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// maxFileOps bounds the ops written in full to the trace file; the summary
// covers every traced op.
const maxFileOps = 2000

// writeTrace summarises every span and writes a sample of whole ops.
func writeTrace(dir, workload string, seed uint64, layer string, tracers []*tracer) error {
	durs := map[spanName][]int64{}
	var opSelf []int64
	nOps := 0
	for _, t := range tracers {
		// Spans of one op are contiguous and end with the op span.
		start := 0
		for i, s := range t.spans {
			durs[s.name] = append(durs[s.name], s.durNS)
			if s.name == spanOp {
				opSelf = append(opSelf, selfNS(s, append([]span(nil), t.spans[start:i]...)))
				start = i + 1
				nOps++
			}
		}
	}
	tf := traceFile{
		Workload: workload, Seed: seed, TracedOps: nOps, SampleEvery: 1 + nOps/maxFileOps,
		Note: "spans recorded by the benchmark harness around its calls; every span's parent is its op span; " +
			"server.* spans are the server's own stage block, placed at the unit's first call + the stage's server offset; " +
			"self time = duration - union of children; summary covers all traced ops, spans every sample_every-th op",
	}
	for n, d := range durs {
		s := spanSummary{Name: n.label(layer), Count: len(d), P50US: float64(quantile(d, 0.5)) / 1e3}
		s.SelfP50US = s.P50US
		if n == spanOp {
			s.SelfP50US = float64(quantile(opSelf, 0.5)) / 1e3
		}
		tf.Summary = append(tf.Summary, s)
	}
	sort.Slice(tf.Summary, func(i, j int) bool { return tf.Summary[i].Name < tf.Summary[j].Name })
	for c, t := range tracers {
		for _, s := range t.spans {
			if int(s.op)%tf.SampleEvery != 0 {
				continue
			}
			j := spanJSON{Client: c, Op: s.op, Name: s.name.label(layer), StartNS: s.startNS, DurNS: s.durNS}
			if s.name != spanOp {
				j.Parent = "op"
			}
			tf.Spans = append(tf.Spans, j)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
