// Command benchmark is the repository's benchmark: four fixed-work
// workloads against the whole stack, six gated end-to-end metrics taken
// over twenty equal-count windows, and a per-layer ledger from a separate
// traced run. See README.md in this directory.
//
//	benchmark --workload oltp_wire --seed 1 --seconds 12 --trace 0   one run; the last stdout line is the result
//	benchmark -seed 1                  every workload, each in a fresh child process
//	benchmark -seed 1 -trace 1         the per-layer run of every workload
//	benchmark -selfcheck               six full sets, A B A B A B, medians compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the nominal length of a
// timed phase on the reference host, and what freezes the op counts.
const defaultSeconds = 12

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same keys and rows")
	seconds := flag.Int("seconds", defaultSeconds, "nominal length of the timed phase; a window is ops-per-window-per-second x this many ops")
	trace := flag.Int("trace", 0, "1 = the per-layer run: spans, counters and probes at a quarter of the op count")
	smoke := flag.Bool("smoke", false, "tiny op counts (checks the plumbing, measures nothing)")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced set six times as two interleaved sets and compare their medians against the bounds")
	outDir := flag.String("out", "out", "directory for trace and result files")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	// At most two Ps, so a larger host measures the same thing: two
	// closed-loop clients and the server side sharing two cores.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *outDir))
	case *workload == "":
		os.Exit(runAll(*seed, *seconds, *trace, *smoke, *outDir))
	}
	spec := findWorkload(*workload)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := runWorkload(&config{spec: spec, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: *outDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
		os.Exit(1)
	}
	report(os.Stdout, res)
	full, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = writeResult(*outDir, res, full)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	last, err := resultLine(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(last)
	if !res.Correct {
		os.Exit(1)
	}
}

// specsFor is the catalogue a run of the given kind must report.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// line is the contract's result: exactly these four keys, on one line.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine fails only on a value JSON cannot carry (a ratio over zero
// acked bytes, say), which is then reported instead of a result.
func resultLine(res *result) (string, error) {
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	for _, s := range specsFor(res.Traced) {
		l.Metrics[s.name] = lineMetric{Value: res.Metrics[s.name], Unit: s.unit}
	}
	b, err := json.Marshal(l)
	if err != nil {
		return "", fmt.Errorf("result line: %w", err)
	}
	return string(b), nil
}

// report prints one run for a person.
func report(w *os.File, res *result) {
	h := res.Host
	kind := "end-to-end (untraced)"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d  %d windows x %d ops after 1 warm-up window  preload=%d rows\n",
		res.Workload, kind, res.Seed, res.Windows, res.WindowOps, res.Preload)
	fmt.Fprintf(w, "   host: nproc=%d GOMAXPROCS=%d %s GOGC=%d  spin %.1f -> %.1f ms  disturbed: %v\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOGC, res.SpinMS[0], res.SpinMS[1], res.Disturbed)
	specs := specsFor(res.Traced)
	if !res.Traced {
		specs = append(append([]metricSpec(nil), specs...), ungated...)
	}
	for _, s := range specs {
		extra := ""
		if n, ok := res.Samples[s.name]; ok {
			extra = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "   %-36s %16.4f %-6s%s\n", s.name, res.Metrics[s.name], s.unit, extra)
	}
	fmt.Fprintf(w, "   %-36s %16.6f %-6s (%d failed of %d attempted; %d acked inserted rows)\n",
		"fail_ratio", res.FailRatio, "ratio", res.Failed, res.Attempted, res.AckedRows)
	rates := make([]string, len(res.WindowOps1s))
	for i, r := range res.WindowOps1s {
		rates[i] = fmt.Sprintf("%.0f", r)
	}
	fmt.Fprintf(w, "   window ops/s: %s  (IQR %.1f%% of median)\n", strings.Join(rates, " "), spreadPct(res.WindowOps1s))
	fmt.Fprintf(w, "   setup_s each: %.3f  recover_s each: %.3f\n", res.SetupS, res.RecoverS)
	if res.Ledger != "" {
		fmt.Fprintf(w, "   ledger: %s\n", res.Ledger)
	}
	if res.Correct {
		fmt.Fprintf(w, "   verified: row count, %d sample keys before the crash and after each of %d recoveries, every scan\n",
			sampleKeys, len(res.RecoverS))
	} else {
		fmt.Fprintf(w, "   VERIFICATION FAILED: %s\n", res.Error)
	}
}

// runChild runs one workload in a fresh process of this binary, so no heap
// state carries from one workload to the next, and parses its result line.
func runChild(workload string, seed uint64, seconds, trace int, smoke bool, outDir string, echo bool) (*line, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace), "-out", outDir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	text := strings.TrimRight(string(out), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if echo {
		fmt.Println(strings.TrimSuffix(text, last))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	var l line
	if err := json.Unmarshal([]byte(last), &l); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &l, nil
}

// runAll runs every workload once and prints each child's report.
func runAll(seed uint64, seconds, trace int, smoke bool, outDir string) int {
	code := 0
	for _, w := range workloads {
		l, err := runChild(w.name, seed, seconds, trace, smoke, outDir, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
			continue
		}
		if !l.Correct || l.Failed > 0 {
			code = 1
		}
	}
	return code
}

// runSelfcheck does what the acceptance pipeline does to this benchmark:
// two sets of runs of the same code, here three each and interleaved
// A B A B A B, whose medians must agree within every metric's bound.
func runSelfcheck(seed uint64, seconds int, outDir string) int {
	const rounds = 6
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for r := 0; r < rounds; r++ {
		for _, w := range workloads {
			l, err := runChild(w.name, seed+uint64(r), seconds, 0, false, outDir, false)
			if err != nil || !l.Correct || l.Failed > 0 {
				fmt.Fprintf(os.Stderr, "benchmark: selfcheck round %d %s failed: %v\n", r+1, w.name, err)
				return 1
			}
			for name, m := range l.Metrics {
				k := key{w.name, name}
				sets[r%2][k] = append(sets[r%2][k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: round %d/%d set %c %s done\n", r+1, rounds, 'A'+rune(r%2), w.name)
		}
	}
	code := 0
	fmt.Printf("%-15s %-24s %12s %12s %8s %7s  %-25s %-25s\n", "workload", "metric", "median A", "median B", "gap", "bound", "A min..max", "B min..max")
	for _, w := range workloads {
		for _, s := range endToEnd {
			a, b := sets[0][key{w.name, s.name}], sets[1][key{w.name, s.name}]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if gap < 0 {
				gap = -gap
			}
			verdict := ""
			if gap > s.bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-15s %-24s %12.4f %12.4f %7.2f%% %6.0f%%  %-25s %-25s%s\n", w.name, s.name, ma, mb, 100*gap, 100*s.bound,
				fmt.Sprintf("%.4g..%.4g", slices.Min(a), slices.Max(a)), fmt.Sprintf("%.4g..%.4g", slices.Min(b), slices.Max(b)), verdict)
		}
	}
	if code == 0 {
		fmt.Println("selfcheck: PASS -- every end-to-end metric's two medians agree within its bound")
	} else {
		fmt.Println("selfcheck: FAIL")
	}
	return code
}
