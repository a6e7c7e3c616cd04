package obs

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	if r.Counter("c") != c {
		t.Fatal("counter registration not idempotent")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if g.Load() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Load())
	}
	r.GaugeFunc("gf", func() int64 { return c.Load() + g.Load() })
	s := r.Snapshot()
	byName := map[string]Metric{}
	for _, m := range s.Metrics {
		byName[m.Name] = m
	}
	if byName["gf"].Value != 12 {
		t.Fatalf("gauge func = %d, want 12", byName["gf"].Value)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(1)
	c.Inc()
	g := r.Gauge("x")
	g.Set(1)
	g.Add(1)
	h := r.Histogram("x")
	h.Record(1)
	r.GaugeFunc("x", func() int64 { return 1 })
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics must be inert")
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestHistogramPercentileOracle checks the power-of-two estimate against a
// sorted-slice oracle: for every quantile, oracle <= estimate < 2*oracle+1
// (the bucket upper bound can never undershoot a value in its bucket, and a
// bucket spans less than one doubling).
func TestHistogramPercentileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := &Histogram{}
	var vals []int64
	for i := 0; i < 10000; i++ {
		var v int64
		switch i % 3 {
		case 0:
			v = rng.Int63n(100)
		case 1:
			v = rng.Int63n(100000)
		default:
			v = rng.Int63n(10000000)
		}
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
		rank := int(q*float64(len(vals)) + 0.9999999)
		if rank < 1 {
			rank = 1
		}
		oracle := vals[rank-1]
		got := h.Quantile(q)
		if got < oracle {
			t.Fatalf("q=%v: estimate %d below oracle %d", q, got, oracle)
		}
		if got > 2*oracle+1 {
			t.Fatalf("q=%v: estimate %d exceeds 2*oracle+1 (%d)", q, got, 2*oracle+1)
		}
	}
	if h.max.Load() != vals[len(vals)-1] {
		t.Fatalf("max = %d, want %d", h.max.Load(), vals[len(vals)-1])
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Record(0)
	h.Record(-5) // clamps to 0
	if h.Count() != 2 || h.Sum() != 0 || h.Quantile(1.0) != 0 {
		t.Fatalf("zero-value histogram: count=%d sum=%d", h.Count(), h.Sum())
	}
	h.Record(1 << 40)
	if h.max.Load() != 1<<40 {
		t.Fatalf("max = %d", h.max.Load())
	}
	// Quantile is clamped to the exact max, not the bucket upper bound.
	if q := h.Quantile(1.0); q != 1<<40 {
		t.Fatalf("p100 = %d, want %d", q, int64(1)<<40)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; run
// under -race this exercises the lock-free recording path, and the final
// count/sum must be exact.
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const goroutines = 8
	const per = 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	want := int64(goroutines*per) * int64(goroutines*per-1) / 2
	if h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	if h.max.Load() != goroutines*per-1 {
		t.Fatalf("max = %d, want %d", h.max.Load(), goroutines*per-1)
	}
}

// TestSnapshotDeterminism registers the same metrics in two different
// orders and expects identical snapshot ordering and rendering.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(names []string) Snapshot {
		r := NewRegistry("det")
		for _, n := range names {
			switch n[0] {
			case 'c':
				r.Counter(n).Add(1)
			case 'g':
				r.Gauge(n).Set(2)
			default:
				r.Histogram(n).Record(3)
			}
		}
		return r.Snapshot()
	}
	a := build([]string{"c.one", "g.two", "h.three", "c.zero"})
	b := build([]string{"h.three", "c.zero", "c.one", "g.two"})
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("metric counts differ: %d vs %d", len(a.Metrics), len(b.Metrics))
	}
	for i := range a.Metrics {
		if a.Metrics[i].Name != b.Metrics[i].Name {
			t.Fatalf("order differs at %d: %q vs %q", i, a.Metrics[i].Name, b.Metrics[i].Name)
		}
	}
	if a.String() != b.String() {
		t.Fatal("renderings differ")
	}
	for i := 1; i < len(a.Metrics); i++ {
		if a.Metrics[i-1].Name >= a.Metrics[i].Name {
			t.Fatalf("snapshot not sorted: %q >= %q", a.Metrics[i-1].Name, a.Metrics[i].Name)
		}
	}
}

// TestRecordingAllocFree is the acceptance check that hot-path recording
// performs zero allocations.
func TestRecordingAllocFree(t *testing.T) {
	r := NewRegistry("alloc")
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var i int64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		c.Add(1)
		g.Set(i)
		h.Record(i)
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %v times per op, want 0", allocs)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry("json")
	r.Counter("core.commits").Add(7)
	h := r.Histogram("wal.batch_txns")
	for i := int64(1); i <= 16; i++ {
		h.Record(i)
	}
	var decoded struct {
		Name    string `json:"name"`
		Metrics []struct {
			Name  string `json:"name"`
			Kind  string `json:"kind"`
			Value int64  `json:"value"`
			Hist  *struct {
				Count int64 `json:"count"`
				P50   int64 `json:"p50"`
			} `json:"hist"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(r.Snapshot().JSON()), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if decoded.Name != "json" || len(decoded.Metrics) != 2 {
		t.Fatalf("decoded %+v", decoded)
	}
	if decoded.Metrics[0].Name != "core.commits" || decoded.Metrics[0].Value != 7 {
		t.Fatalf("counter decoded as %+v", decoded.Metrics[0])
	}
	if decoded.Metrics[1].Hist == nil || decoded.Metrics[1].Hist.Count != 16 {
		t.Fatalf("histogram decoded as %+v", decoded.Metrics[1])
	}
}
