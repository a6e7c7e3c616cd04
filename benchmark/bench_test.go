package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"hiengine/internal/core"
)

func TestKeyStreamDependsOnSeedOnly(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(w.name, 1, 5000), streamHash(w.name, 1, 5000)
		if a != b {
			t.Errorf("%s: the same seed gave two key streams (%x, %x)", w.name, a, b)
		}
		if c := streamHash(w.name, 2, 5000); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same key stream", w.name)
		}
	}
	if streamHash("oltp_wire", 9, 1000) != streamHash("oltp_inproc", 9, 1000) {
		t.Error("oltp_wire and oltp_inproc must run the identical op stream")
	}
	if rowText(1, 5, 0) == rowText(1, 5, 1) || rowText(1, 5, 0) == rowText(1, 6, 0) || len(rowText(1, 5, 0)) != textLen {
		t.Error("rowText must differ by id and version and be textLen bytes")
	}
}

func TestQuantilesAgainstSortOracle(t *testing.T) {
	r := rng{s: 42}
	for _, n := range []int{1, 2, 3, 10, 11, 100, 1001} {
		samples := make([]int64, n)
		fl := make([]float64, n)
		for i := range samples {
			samples[i] = r.intn(1_000_000)
			fl[i] = float64(samples[i])
		}
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			// Oracle: the smallest value with at least q*n values <= it.
			want := sorted[n-1]
			for _, v := range sorted {
				le := sort.Search(n, func(i int) bool { return sorted[i] > v })
				if float64(le) >= q*float64(n) {
					want = v
					break
				}
			}
			if got := quantile(samples, q); got != want {
				t.Errorf("n=%d q=%v: quantile = %d, oracle %d", n, q, got, want)
			}
		}
		wantMed := float64(sorted[n/2])
		if n%2 == 0 {
			wantMed = float64(sorted[n/2-1]+sorted[n/2]) / 2
		}
		if got := median(fl); got != wantMed {
			t.Errorf("n=%d: median = %v, oracle %v", n, got, wantMed)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python's exclusive method gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
	// 20 windows: the 5 lowest and 5 highest are dropped, 5..14 average 9.5,
	// whatever the outliers are.
	win := []float64{1000, 2, 3, 4, -50, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 1, 17, 18, 19, 5}
	if got := midMean(win); got != 9.5 {
		t.Errorf("midMean = %v, want 9.5", got)
	}
	if got := spreadPct([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-100) > 1e-9 {
		t.Errorf("spreadPct(1..10) = %v, want 100", got)
	}
}

func smokeConfig(name string, trace bool, dir string) *config {
	return &config{spec: findWorkload(name), seed: 3, seconds: 1, trace: trace, smoke: true, outDir: dir}
}

func TestVerifierCatchesPlantedFaults(t *testing.T) {
	c := smokeConfig("oltp_inproc", false, t.TempDir())
	dep, err := deploy(c, c.sizes())
	if err != nil {
		t.Fatal(err)
	}
	defer dep.e.close()
	if _, err := runPhase(dep.e, dep.m, dep.drivers, 0, 40); err != nil {
		t.Fatal(err)
	}
	m := dep.m
	if err := m.verify(dep.e.engine); err != nil {
		t.Fatalf("a correct run must verify: %v", err)
	}

	// A lost update: the model saw an ack the database has no trace of.
	// Every preloaded key is claimed lost so the sample is sure to hit one.
	for i := range m.ver {
		m.ver[i]++
	}
	err = m.verify(dep.e.engine)
	if err == nil || !strings.Contains(err.Error(), "lost or stale write") {
		t.Errorf("planted lost update: verify returned %v", err)
	}
	for i := range m.ver {
		m.ver[i]--
	}

	// A lost insert: one more op acked than rows arrived.
	m.ops[0]++
	err = m.verify(dep.e.engine)
	if err == nil || !strings.Contains(err.Error(), "rows, want") {
		t.Errorf("planted lost insert: verify returned %v", err)
	}
	m.ops[0]--
	if err := m.verify(dep.e.engine); err != nil {
		t.Fatalf("model restored, verify must pass again: %v", err)
	}

	// The same after a crash: recovery must bring back every acked write.
	if _, err := crashAndRecover(dep.e, m, 1); err != nil {
		t.Errorf("recovery of a correct run: %v", err)
	}
}

func TestScanCheckCatchesShortAndStaleScans(t *testing.T) {
	full := make([]core.Row, groupRows)
	for i := range full {
		full[i] = core.Row{core.I(int64(i)), core.S("old")}
	}
	full[7][1] = core.S("new")
	if err := checkScan(full, 7, "new"); err != nil {
		t.Fatalf("a complete scan must pass: %v", err)
	}
	if err := checkScan(full[:groupRows-1], 7, "new"); err == nil {
		t.Error("a scan one row short passed")
	}
	if err := checkScan(full, 8, "new"); err == nil {
		t.Error("a scan that misses the write just acked passed")
	}
	swapped := append([]core.Row(nil), full...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if err := checkScan(swapped, 7, "new"); err == nil {
		t.Error("a scan out of key order passed")
	}
}

// benchmarkJSON is ../BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestSmokeRunEmitsExactlyTheContractsNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for _, set := range []struct {
		kind string
		json []jsonMetric
		spec []metricSpec
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(set.json) != len(set.spec) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", set.kind, len(set.json), len(set.spec))
		}
		for i, s := range set.spec {
			j := set.json[i]
			if j.Name != s.name || j.Unit != s.unit || j.Better != s.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", set.kind, i, j, s)
			}
			if (set.kind == "end_to_end") != (j.Bound != nil) || (j.Bound != nil && *j.Bound != s.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the program's %v", set.kind, s.name, s.bound)
			}
		}
	}

	dir := t.TempDir()
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, w.Name, workloads[i].name)
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(smokeConfig(w.Name, traced, dir))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d: %s", w.Name, traced, res.Correct, res.Failed, res.Error)
			}
			last, err := resultLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var l line
			if err := json.Unmarshal([]byte(last), &l); err != nil {
				t.Fatal(err)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			if len(l.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", w.Name, traced, len(l.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := l.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(dir + "/" + w.Name + ".trace.json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}
