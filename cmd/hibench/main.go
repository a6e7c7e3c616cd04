// Command hibench runs the experiments of the internal/bench registry: the
// tables and figures of the HiEngine paper's evaluation (Section 6) and the
// service-deployment experiments benchmark/ does not cover (replica fan-out,
// failover, sharding with 2PC, streamed scans). Each experiment builds what
// it compares, runs its workload, and prints the measured series next to
// the paper's expected shape. Nothing is written unless -out names a
// directory, which then receives one BENCH_<id>.json per experiment.
//
// Usage:
//
//	hibench -exp all                        # every experiment, full scale
//	hibench -exp fig5a                      # one experiment
//	hibench -exp fig6 -quick                # reduced scale (CI-sized)
//	hibench -exp shard -quick -out bench-out  # and write bench-out/BENCH_shard.json
//	hibench -list                           # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"hiengine/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit code as values.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		quick    = fs.Bool("quick", false, "reduced dataset sizes and durations")
		threads  = fs.Int("threads", 0, "override worker thread (service experiments: client) count (0 = per-experiment default)")
		duration = fs.Duration("duration", 0, "override per-measurement duration (0 = default)")
		stats    = fs.Bool("stats", false, "append the HiEngine obs snapshot (latency percentiles, batch sizes, GC) to each report")
		list     = fs.Bool("list", false, "list experiments and exit")
		verbose  = fs.Bool("v", false, "print progress lines")
		outDir   = fs.String("out", "", "directory for BENCH_<id>.json documents (default: none are written)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, r := range bench.All() {
			fmt.Fprintf(stdout, "%-9s %s\n", r.ID, r.Title)
		}
		return 0
	}

	opts := bench.Options{Quick: *quick, Threads: *threads, Duration: *duration, Stats: *stats}
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(stderr, "  ..", s) }
	}
	runners := bench.All()
	if *exp != "all" {
		r, ok := bench.Find(*exp)
		if !ok {
			fmt.Fprintf(stderr, "hibench: unknown experiment %q (use -list)\n", *exp)
			return 2
		}
		runners = []bench.Runner{r}
	}

	for _, r := range runners {
		start := time.Now()
		rep, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "hibench: %s failed: %v\n", r.ID, err)
			return 1
		}
		fmt.Fprintln(stdout, rep)
		if *outDir != "" {
			path, err := write(*outDir, rep)
			if err != nil {
				fmt.Fprintf(stderr, "hibench: %s: %v\n", r.ID, err)
				return 1
			}
			fmt.Fprintf(stdout, "hibench: wrote %s\n", path)
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// write puts rep's document at dir/BENCH_<id>.json.
func write(dir string, rep *bench.Report) (string, error) {
	doc, err := rep.JSON()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+rep.ID+".json")
	return path, os.WriteFile(path, doc, 0o644)
}
