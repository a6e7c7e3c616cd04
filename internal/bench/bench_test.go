package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"hiengine/internal/delay"
	"hiengine/internal/numa"
	"hiengine/internal/workload/tpcc"
)

// The quick-mode runners double as integration tests: every figure pipeline
// must execute end to end and produce structurally sane reports, and
// TestEveryExperimentRuns runs each once.

func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	r, ok := Find(id)
	if !ok {
		t.Fatalf("no runner %q", id)
	}
	rep, err := r.Run(Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id || len(rep.Header) == 0 || len(rep.Rows) == 0 {
		t.Fatalf("%s: malformed report %+v", id, rep)
	}
	if s := rep.String(); !strings.Contains(s, rep.Title) {
		t.Fatalf("%s: render missing title", id)
	}
	return rep
}

// at is the value of column name in the row labelled label, read from the
// report's series.
func at(t *testing.T, rep *Report, name, label string) float64 {
	t.Helper()
	for _, s := range rep.Series {
		if i := slices.Index(s.Labels, label); s.Name == name && i >= 0 {
			return s.Values[i]
		}
	}
	t.Fatalf("%s has no %q value for %q", rep.ID, name, label)
	return 0
}

// reports holds each report TestEveryExperimentRuns made in this pass, for
// the shape test of its experiment to check and take, so a go test runs each
// experiment once; a shape test run on its own (-run) makes its own.
var reports = map[string]*Report{}

func report(t *testing.T, id string) *Report {
	t.Helper()
	if rep, ok := reports[id]; ok {
		delete(reports, id)
		return rep
	}
	return runQuick(t, id)
}

// experimentIDs is the registry as a reader of -list sees it.
var experimentIDs = []string{"table1", "fig5a", "fig5b", "fig6", "fig7", "fig8", "clock", "ablations",
	"replica", "failover", "shard", "scan"}

func TestFindAndAll(t *testing.T) {
	var ids []string
	for _, r := range All() {
		ids = append(ids, r.ID)
		if got, ok := Find(r.ID); !ok || got.Title != r.Title {
			t.Errorf("Find(%q) = %+v, %v", r.ID, got, ok)
		}
	}
	if !reflect.DeepEqual(ids, experimentIDs) {
		t.Fatalf("registry ids = %v, want %v", ids, experimentIDs)
	}
	if _, ok := Find("ghost"); ok {
		t.Fatal("found nonexistent runner")
	}
}

// TestEveryExperimentRuns runs the whole registry at quick scale, each
// experiment once, and keeps each report for its shape test. A
// service runner's correctness conditions (every routed read returns one
// row, streamed rows == loaded rows, no shard error but a tolerated busy,
// every failover client reconverges) are errors of its Run, so they fail
// here.
func TestEveryExperimentRuns(t *testing.T) {
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			rep := runQuick(t, r.ID)
			doc, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				SchemaVersion int    `json:"schema_version"`
				ID            string `json:"id"`
				Title         string `json:"title"`
				GOMAXPROCS    int    `json:"gomaxprocs"`
				Timestamp     string `json:"timestamp"`
				Series        []Series
			}
			if err := json.Unmarshal(doc, &got); err != nil {
				t.Fatalf("%v in %s", err, doc)
			}
			if got.SchemaVersion != SchemaVersion || got.ID != r.ID || got.Title != rep.Title ||
				got.GOMAXPROCS < 1 || got.Timestamp == "" {
				t.Fatalf("document head: %+v", got)
			}
			if len(got.Series) == 0 || !reflect.DeepEqual(got.Series, rep.Series) {
				t.Fatalf("series did not round-trip: %+v, want %+v", got.Series, rep.Series)
			}
			for _, s := range got.Series {
				if s.Name == "" || len(s.Values) == 0 || len(s.Labels) != len(s.Values) {
					t.Fatalf("malformed series %+v", s)
				}
			}
			reports[r.ID] = rep
		})
	}
}

// The shape tests, which follow TestEveryExperimentRuns so as to check its
// reports, hold an experiment's claims, each in a unit no load on the host
// moves, so each holds under the race detector too: a count, or the
// latency the model charged per operation (a meter's "modelled" column).
// Wall-clock columns stay in the reports, unasserted.

func TestTable1(t *testing.T) {
	rep := report(t, "table1")
	if len(rep.Rows) != 9 {
		t.Errorf("table1 rows = %d", len(rep.Rows))
	}
}

// HiEngine's transactions cost less modelled time than the baselines',
// by at least the paper's lowest factor, and MySQL's writes no less than
// DBMS-T's: writes, for the commit each forces (compute-side, or across
// the network to storage), reads for the buffer pool's page touches.
// Ordering alone would pass a HiEngine that commits to the storage tier:
// its 105 us per commit is still below DBMS-T's 110.
func TestFig5aShape(t *testing.T) {
	rep := report(t, "fig5a")
	w := func(engine string) float64 { return at(t, rep, "write modelled us/txn", engine) }
	if hi, dt, my := w("HiEngine"), w("DBMS-T"), w("MySQL"); !(3.6*hi <= dt && dt <= my) {
		t.Errorf("a write costs HiEngine %.2f us, DBMS-T %.2f, MySQL %.2f: want 3.6x less, then no more", hi, dt, my)
	}
	if hi, my := at(t, rep, "read modelled us/txn", "HiEngine"), at(t, rep, "read modelled us/txn", "MySQL"); 4.2*hi >= my {
		t.Errorf("a read costs HiEngine %.2f us, MySQL %.2f: want 4.2x less", hi, my)
	}
}

func TestFig5bShape(t *testing.T) {
	rep := report(t, "fig5b")
	if hi, my := at(t, rep, "write modelled us/txn", "HiEngine"), at(t, rep, "write modelled us/txn", "MySQL"); 8*hi >= my {
		t.Errorf("a compiled write costs HiEngine %.2f us, MySQL %.2f: want 8x less", hi, my)
	}
}

// The paper claims 2x on ARM and 1.3x on x86; at quick scale HiEngine
// only must not lose badly: at most 1/0.8 of DBMS-M's cost.
func TestFig6Shape(t *testing.T) {
	rep := report(t, "fig6")
	platforms := map[string]bool{}
	for _, row := range rep.Rows {
		if row[2] != "HiEngine" {
			continue
		}
		platforms[row[0]] = true
		hi := at(t, rep, "modelled us/txn", row[0]+"/"+row[1]+"/HiEngine")
		if dm := at(t, rep, "modelled us/txn", row[0]+"/"+row[1]+"/DBMS-M"); 0.8*hi > dm {
			t.Errorf("HiEngine lost badly to DBMS-M on %s/%s: %.2f us per transaction, DBMS-M %.2f", row[0], row[1], hi, dm)
		}
	}
	if !platforms["ARM"] || !platforms["x86"] {
		t.Errorf("platforms %v, want ARM and x86", platforms)
	}
}

// TestTPCCAcrossSocketsChargesTheInterconnect: fig6's quick runs stay on
// one socket, so this is what reaches runTPCC's per-commit cross-socket
// charge. Two HiEngine threads run 100 transactions each, on a socket of two
// cores and then on two sockets of one: spanning them must raise the
// remote-access fraction and the modelled latency per transaction. Both are
// ratios of charges, not of wall time; a cross-socket access costs 20 us
// here, so the charge stands far above what group commit's batching moves
// the log's share by from run to run.
func TestTPCCAcrossSocketsChargesTheInterconnect(t *testing.T) {
	run := func(sockets int) tpccRun {
		t.Helper()
		topo := numa.Topology{Name: "tiny", Sockets: sockets, DiesPerSocket: 1, CoresPerDie: 2 / sockets,
			LocalAccess: 80 * time.Nanosecond, RemoteDie: 80 * time.Nanosecond, RemoteSocket: 20 * time.Microsecond}
		hi := fig6Engines(delay.CloudProfile(), 2, nil)[0]
		r, err := runTPCC(hi, topo, 2, 2, tpcc.SmallScale(), 0, true, numa.PolicyLocal)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one, two := run(1), run(2)
	t.Logf("one socket: %.2f%% remote, %s us/txn; two: %.2f%% remote, %s us/txn",
		one.remote*100, one.modelled.text, two.remote*100, two.modelled.text)
	if two.remote <= one.remote {
		t.Errorf("spanning two sockets left the remote-access fraction at %.4f (one socket: %.4f)", two.remote, one.remote)
	}
	if two.modelled.val <= one.modelled.val {
		t.Errorf("spanning two sockets left the modelled latency at %.2f us/txn (one socket: %.2f)", two.modelled.val, one.modelled.val)
	}
}

func TestFig7Shape(t *testing.T) {
	rep := report(t, "fig7")
	best := at(t, rep, "remote-access", "partitioned+local/HiEngine")
	if worst := at(t, rep, "remote-access", "partitioned+remote/HiEngine"); worst <= best {
		t.Errorf("remote policy did not raise remote fraction: best=%v worst=%v", best, worst)
	}
}

// More replay threads spread the log's segments: at the top thread
// count the busiest worker replays fewer records than there are.
func TestFig8Shape(t *testing.T) {
	rep := report(t, "fig8")
	for _, row := range rep.Rows {
		if _, err := time.ParseDuration(row[1]); err != nil {
			t.Errorf("bad duration %q", row[1])
		}
	}
	top := rep.Rows[len(rep.Rows)-1][0]
	if spread := at(t, rep, "records/busiest worker", top); spread <= 1 {
		t.Errorf("%s replay workers: the busiest replays 1/%.2f of the records, want less than all", top, spread)
	}
}

// At 3 nodes a global-clock grant costs less than a logical-clock one.
func TestClockBenchShape(t *testing.T) {
	rep := report(t, "clock")
	logical := at(t, rep, "modelled us/grant", "3/logical (RDMA FAA)")
	if global := at(t, rep, "modelled us/grant", "3/global (eps=10us)"); global >= logical {
		t.Errorf("a global-clock grant costs %.2f us at 3 nodes, a logical one %.2f: want less", global, logical)
	}
}

// Each commit claim in a counted unit, the variant's own delta of the
// registry: pipelining folds more commits into one SRSS append than
// synchronous commit does, and a compute-side commit makes fewer
// cross-layer SRSS operations than a storage-side one. The checkpoint
// claim is in bytes written per row: a dataless image
// (core.checkpoint_image_bytes) is smaller than a full-data PLog of the
// same rows.
func TestAblationsShape(t *testing.T) {
	rep := report(t, "ablations")
	if dataless, full := at(t, rep, "bytes/row", "checkpoint/dataless (PIA only)"), at(t, rep, "bytes/row", "checkpoint/full-data"); dataless <= 0 || dataless >= full {
		t.Errorf("a dataless checkpoint writes %.2f bytes per row, a full-data one %.2f: want fewer, and some", dataless, full)
	}
	if sync, piped := at(t, rep, "commits/append", "commit pipelining/sync"), at(t, rep, "commits/append", "commit pipelining/pipelined"); piped <= sync {
		t.Errorf("pipelined commit carries %.2f commits per SRSS append, sync %.2f: want more", piped, sync)
	}
	if comp, stor := at(t, rep, "cross-layer ops/commit", "commit persistence/compute-side"), at(t, rep, "cross-layer ops/commit", "commit persistence/storage-side"); comp >= stor {
		t.Errorf("compute-side commit makes %.2f cross-layer SRSS ops per commit, storage-side %.2f: want fewer", comp, stor)
	}
}

// TestExperimentIndexMatchesRegistry holds the two documents that list the
// experiments to the registry: DESIGN.md's per-experiment index has one row
// per id, whose command runs that id, and README's -exp list names them all.
func TestExperimentIndexMatchesRegistry(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	_, index, ok := strings.Cut(read("DESIGN.md"), "\n## Per-experiment index")
	if !ok {
		t.Fatal("DESIGN.md has no per-experiment index")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	row := regexp.MustCompile("(?m)^\\| *`([a-z0-9]+)` *\\|.*`hibench -exp ([a-z0-9]+)[ `]")
	var ids []string
	for _, m := range row.FindAllStringSubmatch(index, -1) {
		if m[1] != m[2] {
			t.Errorf("DESIGN.md index row %q regenerates with -exp %s", m[1], m[2])
		}
		ids = append(ids, m[1])
	}
	if !reflect.DeepEqual(ids, experimentIDs) {
		t.Errorf("DESIGN.md index rows = %v, want %v", ids, experimentIDs)
	}
	list := regexp.MustCompile(`-exp all\|([a-z0-9|]+)`).FindStringSubmatch(read("README.md"))
	if list == nil || !reflect.DeepEqual(strings.Split(list[1], "|"), experimentIDs) {
		t.Errorf("README.md -exp list = %v, want all|%s", list, strings.Join(experimentIDs, "|"))
	}
}
