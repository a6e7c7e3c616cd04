// Package obs is HiEngine's unified observability layer: a zero-dependency
// metrics registry with atomic counters, gauges and lock-free power-of-two
// latency histograms.
//
// The paper's headline claims (Section 5, Figures 5-8) are all *measured*
// claims -- pipelined vs synchronous commit latency, group-commit batch
// sizes, GC interleaving, replication cost -- and logging/persistence
// trade-offs are only visible through latency distributions, not means.
// Every hot-path recording operation is a handful of atomic adds into fixed
// bucket arrays: no locks, no allocation, so instrumentation does not
// distort the microsecond-scale latency model in internal/delay.
//
// Components register metrics under dotted names ("wal.commit_latency_ns")
// in a shared Registry; Snapshot() produces a deterministic, ordered view
// with percentile estimates that renders as text or JSON. All metric
// methods are nil-receiver safe, so instrumented code can hold nil metric
// pointers when no registry is attached and pay only a predictable branch.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n. Safe on a nil receiver.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current value (0 for a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket 0 holds the value 0 and
// bucket i (i >= 1) holds values v with bits.Len64(v) == i, i.e.
// v in [2^(i-1), 2^i - 1]. 64 buckets cover every non-negative int64.
const histBuckets = 64

// Histogram is a lock-free power-of-two histogram. Record is wait-free
// except for the bounded CAS loop maintaining the exact maximum; all state
// lives in fixed arrays so recording never allocates.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Record adds one observation. Negative values clamp to zero. Safe on a nil
// receiver (no-op), so hot paths can record unconditionally.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of recorded observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // math.MaxInt64
	}
	return (int64(1) << uint(i)) - 1
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding the rank-ceil(q*count) observation, clamped to the exact
// maximum. The estimate E of a true value T satisfies T <= E < 2*T (power
// of two bucketing). Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			u := bucketUpper(i)
			if m := h.max.Load(); u > m {
				u = m
			}
			return u
		}
	}
	return h.max.Load()
}

// gaugeFunc wraps a callback evaluated at snapshot time.
type gaugeFunc func() int64

// Registry is a named collection of metrics. Metric registration is
// idempotent by name; lookups on the hot path should be done once at setup
// and the returned pointers cached.
type Registry struct {
	name string

	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	funcs  map[string]gaugeFunc
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry with the given name.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:   name,
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		funcs:  make(map[string]gaugeFunc),
		hists:  make(map[string]*Histogram),
	}
}

// Name returns the registry name.
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Counter returns (creating if needed) the counter with the given name.
// Returns nil on a nil registry, which yields a no-op metric.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated at snapshot time (e.g. a lag
// derived from two counters). Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Histogram returns (creating if needed) the histogram with the given name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Kind tags a snapshot metric.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Bucket is one non-empty histogram bucket: Count observations <= Le (and
// greater than the previous bucket's Le).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistValue is a point-in-time view of a histogram.
type HistValue struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	P50     int64    `json:"p50"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// mean returns the arithmetic mean (0 when empty).
func (h HistValue) mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Metric is one metric in a snapshot.
type Metric struct {
	Name  string     `json:"name"`
	Kind  Kind       `json:"kind"`
	Value int64      `json:"value,omitempty"`
	Hist  *HistValue `json:"hist,omitempty"`
}

// Snapshot is a deterministic, name-ordered view of a registry.
type Snapshot struct {
	Name    string   `json:"name"`
	Metrics []Metric `json:"metrics"`
}

// snapshotHist materializes one histogram.
func snapshotHist(h *Histogram) *HistValue {
	hv := &HistValue{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			le := bucketUpper(i)
			if le > hv.Max {
				le = hv.Max
			}
			hv.Buckets = append(hv.Buckets, Bucket{Le: le, Count: n})
		}
	}
	return hv
}

// Snapshot captures every metric, ordered by name. The capture is not an
// atomic cut across metrics (concurrent recording continues), but each
// individual metric is read atomically and the output ordering is
// deterministic. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	s := Snapshot{Name: r.name}
	for name, c := range r.counts {
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindCounter, Value: c.Load()})
	}
	for name, g := range r.gauges {
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindGauge, Value: g.Load()})
	}
	fns := make(map[string]gaugeFunc, len(r.funcs))
	for name, fn := range r.funcs {
		fns[name] = fn
	}
	for name, h := range r.hists {
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindHistogram, Hist: snapshotHist(h)})
	}
	r.mu.Unlock()
	// Callbacks run outside the registry lock: they may read engine state
	// that itself registers metrics.
	for name, fn := range fns {
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindGauge, Value: fn()})
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}

// String renders the snapshot as aligned text, one metric per line.
// Histograms show count/mean/percentiles/max plus the non-empty buckets.
func (s Snapshot) String() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "--- obs: %s ---\n", s.Name)
	}
	w := 0
	for _, m := range s.Metrics {
		if len(m.Name) > w {
			w = len(m.Name)
		}
	}
	for _, m := range s.Metrics {
		switch m.Kind {
		case KindHistogram:
			h := m.Hist
			fmt.Fprintf(&b, "%-*s  count=%d mean=%.0f p50=%d p95=%d p99=%d max=%d",
				w, m.Name, h.Count, h.mean(), h.P50, h.P95, h.P99, h.Max)
			if len(h.Buckets) > 0 {
				b.WriteString(" buckets[")
				for i, bk := range h.Buckets {
					if i > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "<=%d:%d", bk.Le, bk.Count)
				}
				b.WriteByte(']')
			}
			b.WriteByte('\n')
		default:
			fmt.Fprintf(&b, "%-*s  %d\n", w, m.Name, m.Value)
		}
	}
	return b.String()
}

// JSON renders the snapshot as a JSON object. Hand-rolled so the package
// stays dependency-free of encoding/json's reflection on the hot render
// path and the field order matches the deterministic snapshot order.
func (s Snapshot) JSON() string {
	var b strings.Builder
	b.WriteByte('{')
	fmt.Fprintf(&b, "%q:%q,%q:[", "name", s.Name, "metrics")
	for i, m := range s.Metrics {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "{%q:%q,%q:%q", "name", m.Name, "kind", m.Kind)
		if m.Kind == KindHistogram {
			h := m.Hist
			fmt.Fprintf(&b, ",%q:{%q:%d,%q:%d,%q:%d,%q:%d,%q:%d,%q:%d,%q:[",
				"hist", "count", h.Count, "sum", h.Sum, "max", h.Max,
				"p50", h.P50, "p95", h.P95, "p99", h.P99, "buckets")
			for j, bk := range h.Buckets {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "{%q:%d,%q:%d}", "le", bk.Le, "count", bk.Count)
			}
			b.WriteString("]}")
		} else {
			fmt.Fprintf(&b, ",%q:%d", "value", m.Value)
		}
		b.WriteByte('}')
	}
	b.WriteString("]}")
	return b.String()
}
