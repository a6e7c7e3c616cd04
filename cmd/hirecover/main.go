// Command hirecover demonstrates HiEngine's dataless checkpoints and
// parallel recovery (Section 4.3) end to end: it loads a TPC-C dataset,
// runs traffic to generate a multi-stream redo log, optionally checkpoints,
// "crashes", and then recovers with a sweep of replay thread counts,
// printing the RTO breakdown for each.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/core"
	"hiengine/internal/srss"
	"hiengine/internal/workload/tpcc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit code as values.
func run(args []string, _ io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hirecover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		warehouses = fs.Int("warehouses", 4, "TPC-C warehouses")
		threads    = fs.Int("threads", 4, "workload threads")
		runFor     = fs.Duration("run", 2*time.Second, "traffic duration before the crash")
		checkpoint = fs.Bool("checkpoint", false, "take a dataless checkpoint before the crash")
		maxReplay  = fs.Int("max-replay", 8, "maximum replay thread count in the sweep")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hirecover:", err)
		return 1
	}

	svc := srss.New(srss.Config{})
	engine, err := core.Open(core.Config{Service: svc, Workers: *threads + 2, SegmentSize: 4 << 20})
	if err != nil {
		return fail(err)
	}
	db := adapt.New(engine)
	sc := tpcc.BenchScale()

	fmt.Fprintf(stdout, "loading %d warehouses...\n", *warehouses)
	if err := tpcc.Load(db, *warehouses, sc, *threads); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "running traffic for %v...\n", *runFor)
	d := tpcc.NewDriver(tpcc.Config{
		DB: db, Warehouses: *warehouses, Threads: *threads, Scale: sc,
		Duration: *runFor, Partitioned: true, PipelineDepth: 8,
	})
	res, err := d.Run()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "  %v\n", res)
	if *checkpoint {
		csn, err := engine.Checkpoint()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "dataless checkpoint at CSN %d\n", csn)
	}
	logMB := float64(engine.Log().TotalBytes()) / (1 << 20)
	segments := len(engine.Log().Segments())
	manifest := engine.ManifestID()
	engine.Close()
	fmt.Fprintf(stdout, "CRASH. (%.1f MB of log across %d segments)\n\n", logMB, segments)

	// The three phases of a recovery: the unfenced log segments into the
	// PIAs, the checkpoint image's stubs into what the tail left, indexed by
	// the image's keys, and the keys of the tail's surviving rows. The
	// speedup is that of the first two together (the PIAs are set up).
	fmt.Fprintf(stdout, "%-14s  %-12s  %-12s  %-12s  %-15s  %-12s  %s\n",
		"replay threads", "tail replay", "image pass", "tail keys", "image/tail keys", "window reads", "speedup")
	var serial time.Duration
	for rt := 1; rt <= *maxReplay; rt *= 2 {
		e2, stats, err := core.Recover(core.Config{Service: svc, Workers: 4, SegmentSize: 4 << 20},
			manifest, core.RecoverOptions{ReplayThreads: rt})
		if err != nil {
			return fail(err)
		}
		if rt == 1 {
			serial = stats.ReplayDuration
		}
		fmt.Fprintf(stdout, "%-14d  %-12v  %-12v  %-12v  %-15s  %-12d  %.2fx\n",
			rt,
			(stats.ReplayDuration - stats.CheckpointLoadDuration).Round(time.Microsecond),
			stats.CheckpointLoadDuration.Round(time.Microsecond),
			stats.IndexDuration.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", stats.ImageKeys, stats.IndexKeys-stats.ImageKeys), stats.WindowReads,
			float64(serial)/float64(stats.ReplayDuration))
		if rt*2 > *maxReplay {
			// Validate the final recovered instance with the TPC-C
			// consistency checks before exiting.
			d2 := tpcc.NewDriver(tpcc.Config{DB: adapt.New(e2), Warehouses: *warehouses, Scale: sc})
			if err := d2.Verify(); err != nil {
				return fail(fmt.Errorf("recovered state inconsistent: %w", err))
			}
			fmt.Fprintln(stdout, "\nrecovered state passes TPC-C consistency checks")
		}
		e2.Close()
	}
	return 0
}
