// Package bench is the repository's experiment registry: one runner per
// table/figure of the paper's evaluation (Section 6) and one per service
// deployment benchmark/ does not cover (replica fan-out, failover, sharding
// with 2PC, streamed scans). Every runner builds what it compares (the
// service runners through serve), loads it through the one closed-loop
// drive, and returns a Report, which alone renders: the aligned text table,
// and the BENCH_<id>.json document. Absolute numbers are not comparable to
// the paper's testbed (128-core Kunpeng servers with persistent memory vs a
// simulated cluster in Go); ratios and trends are the reproduction target,
// as recorded in EXPERIMENTS.md.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"hiengine/internal/obs"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks datasets and durations for CI/tests. Full runs are
	// the default for cmd/hibench.
	Quick bool
	// Threads overrides the default worker-thread count of a figure and the
	// client count of a service experiment (0 = per-experiment defaults).
	Threads int
	// Duration overrides per-measurement run time (0 = default).
	Duration time.Duration
	// Stats attaches an obs registry to the HiEngine instances under test
	// and appends its snapshot (commit latency percentiles, group-commit
	// batch sizes, GC/checkpoint activity) to the report.
	Stats bool
	// Out receives progress lines (nil = silent).
	Progress func(string)
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// statsReg returns a registry for this run when Stats is set, nil otherwise
// (a nil registry makes every metric a no-op).
func (o Options) statsReg(id string) *obs.Registry {
	if !o.Stats {
		return nil
	}
	return obs.NewRegistry(id)
}

func (o Options) dur(full, quick time.Duration) time.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	if o.Quick {
		return quick
	}
	return full
}

// threads is dur's twin for the thread (or client) count.
func (o Options) threads(full, quick int) int {
	if o.Threads > 0 {
		return o.Threads
	}
	if o.Quick {
		return quick
	}
	return full
}

// Report is an experiment's result: a table of text cells, and the number
// behind every measured cell as named series.
type Report struct {
	ID       string // e.g. "fig5a"
	Title    string
	Expected string // the paper's claim, quoted/summarized
	Header   []string
	Rows     [][]string
	Notes    []string
	// Series holds one entry per measured column, filled by row.
	Series []Series
	// Stats is the rendered obs snapshot of the HiEngine instance(s) under
	// test, present when Options.Stats was set.
	Stats string
}

// Series is one measured column of a report: the number behind each of its
// cells, labelled by the text cells of the cell's row. Durations are in
// milliseconds; every other value is the number its cell shows.
type Series struct {
	Name   string    `json:"name"`
	Labels []string  `json:"labels"`
	Values []float64 `json:"values"`
}

// cell is one measured table cell: the text the table shows and the number
// behind it.
type cell struct {
	text string
	val  float64
}

func f0(v float64) cell  { return cell{fmt.Sprintf("%.0f", v), v} }
func f2(v float64) cell  { return cell{fmt.Sprintf("%.2f", v), v} }
func f4(v float64) cell  { return cell{fmt.Sprintf("%.4f", v), v} }
func pct(v float64) cell { return cell{fmt.Sprintf("%.1f%%", v*100), v * 100} }

// ratio is a/b; a zero b reads "inf" and carries no number.
func ratio(a, b float64) cell {
	if b == 0 {
		return cell{"inf", math.NaN()}
	}
	return cell{fmt.Sprintf("%.2fx", a/b), a / b}
}

// took shows d to the microsecond and carries it in milliseconds.
func took(d time.Duration) cell {
	return cell{d.Round(time.Microsecond).String(), float64(d) / float64(time.Millisecond)}
}

// row appends one table row. A string or int cell is text and part of the
// row's label; a cell is a measurement, which also lands in the series
// named after its column.
func (r *Report) row(cells ...interface{}) {
	text := make([]string, len(cells))
	var label []string
	for i, c := range cells {
		if m, ok := c.(cell); ok {
			text[i] = m.text
		} else if text[i] = fmt.Sprint(c); text[i] != "" {
			label = append(label, text[i])
		}
	}
	r.Rows = append(r.Rows, text)
	for i, c := range cells {
		m, ok := c.(cell)
		if !ok || math.IsNaN(m.val) {
			continue
		}
		s := r.series(r.Header[i])
		s.Labels = append(s.Labels, strings.Join(label, "/"))
		s.Values = append(s.Values, m.val)
	}
}

func (r *Report) series(name string) *Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	r.Series = append(r.Series, Series{Name: name})
	return &r.Series[len(r.Series)-1]
}

// attachStats renders reg's snapshot into the report (no-op for nil reg).
func (r *Report) attachStats(reg *obs.Registry) {
	if reg != nil {
		r.Stats = reg.Snapshot().String()
	}
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Expected != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Expected)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if r.Stats != "" {
		b.WriteString(r.Stats)
	}
	return b.String()
}

// SchemaVersion stamps every BENCH_<id>.json document. Version history:
//
//	1: implicit (documents predating the stamp carry no field)
//	2: schema_version added
//	3: BENCH_scan.json introduced; one document shape per hibench mode
//	4: one shape for every experiment: id, title, gomaxprocs, timestamp, series
const SchemaVersion = 4

// JSON renders the report as its BENCH_<id>.json document.
func (r *Report) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(struct {
		SchemaVersion int      `json:"schema_version"`
		ID            string   `json:"id"`
		Title         string   `json:"title"`
		GOMAXPROCS    int      `json:"gomaxprocs"`
		Timestamp     string   `json:"timestamp"`
		Series        []Series `json:"series"`
	}{SchemaVersion, r.ID, r.Title, runtime.GOMAXPROCS(0), time.Now().UTC().Format(time.RFC3339), r.Series}, "", "  ")
	return append(buf, '\n'), err
}

// Runner is one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// All returns every experiment runner in presentation order.
func All() []Runner {
	return []Runner{
		{ID: "table1", Title: "Logical architecture comparison (Table 1)", Run: Table1},
		{ID: "fig5a", Title: "Interpreted read/write throughput (Figure 5a)", Run: Fig5a},
		{ID: "fig5b", Title: "Compiled (stored-procedure) throughput (Figure 5b)", Run: Fig5b},
		{ID: "fig6", Title: "TPC-C scalability vs cores, ARM & x86 (Figure 6)", Run: Fig6},
		{ID: "fig7", Title: "Workload partitioning x memory policy (Figure 7)", Run: Fig7},
		{ID: "fig8", Title: "Parallel recovery RTO speedup (Figure 8)", Run: Fig8},
		{ID: "clock", Title: "Timestamp grant: logical vs global clock (Section 5.3)", Run: ClockBench},
		{ID: "ablations", Title: "Design-decision ablations (DESIGN.md)", Run: Ablations},
		{ID: "replica", Title: "Read fan-out across log-shipping replicas (Figure 3 deployment)", Run: ReplicaFanout},
		{ID: "failover", Title: "Primary kill: time-to-promote and client write gap", Run: Failover},
		{ID: "shard", Title: "Routed and cross-shard 2PC transactions vs one shard", Run: Shard},
		{ID: "scan", Title: "Batch writes and streamed scans over the wire", Run: Scan},
	}
}

// Find returns the runner with the given ID.
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
