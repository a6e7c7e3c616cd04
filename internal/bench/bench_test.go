package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hiengine/internal/raceflag"
)

// The quick-mode runners double as integration tests: every figure pipeline
// must execute end to end and produce structurally sane reports.

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

// skipShapes skips the remaining performance-shape assertions when the
// measurements are not meaningful (race detector active: its
// instrumentation multiplies CPU costs and swamps the modeled latencies).
// It is called AFTER the experiment pipeline ran, so integration coverage
// is unaffected.
func skipShapes(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("performance shapes are not meaningful under the race detector")
	}
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestTable1(t *testing.T) {
	rep := runQuick(t, "table1")
	if len(rep.Rows) != 9 {
		t.Fatalf("table1 rows = %d", len(rep.Rows))
	}
}

func TestFig5aShape(t *testing.T) {
	rep := runQuick(t, "fig5a")
	skipShapes(t)
	// Rows: HiEngine, DBMS-T, MySQL; HiEngine write TPS must beat both
	// baselines and MySQL must trail DBMS-T.
	byName := map[string][]string{}
	for _, row := range rep.Rows {
		byName[row[0]] = row
	}
	hiW := cellFloat(t, byName["HiEngine"][2])
	dtW := cellFloat(t, byName["DBMS-T"][2])
	myW := cellFloat(t, byName["MySQL"][2])
	if !(hiW > dtW && dtW >= myW) {
		t.Fatalf("write ordering violated: hi=%v dbms-t=%v mysql=%v", hiW, dtW, myW)
	}
	hiR := cellFloat(t, byName["HiEngine"][1])
	myR := cellFloat(t, byName["MySQL"][1])
	if hiR <= myR {
		t.Fatalf("read ordering violated: hi=%v mysql=%v", hiR, myR)
	}
}

func TestFig5bShape(t *testing.T) {
	rep := runQuick(t, "fig5b")
	skipShapes(t)
	byName := map[string][]string{}
	for _, row := range rep.Rows {
		byName[row[0]] = row
	}
	hiW := cellFloat(t, byName["HiEngine"][2])
	myW := cellFloat(t, byName["MySQL"][2])
	if hiW <= myW {
		t.Fatalf("compiled write ordering violated: hi=%v mysql=%v", hiW, myW)
	}
}

func TestFig6Shape(t *testing.T) {
	rep := runQuick(t, "fig6")
	skipShapes(t)
	// Every HiEngine row should carry a ratio >= 1 against DBMS-M... the
	// paper claims 2x avg on ARM, 1.3x on x86; under quick scale we only
	// require HiEngine to not lose.
	sawARM, sawX86 := false, false
	for _, row := range rep.Rows {
		if row[2] != "HiEngine" {
			continue
		}
		switch row[0] {
		case "ARM":
			sawARM = true
		case "x86":
			sawX86 = true
		}
		if r := cellFloat(t, row[5]); r < 0.8 {
			t.Fatalf("HiEngine lost badly to DBMS-M on %s/%s: %v", row[0], row[1], r)
		}
	}
	if !sawARM || !sawX86 {
		t.Fatal("missing platform rows")
	}
}

func TestFig7Shape(t *testing.T) {
	rep := runQuick(t, "fig7")
	skipShapes(t)
	var bestRemote, worstRemote float64
	for _, row := range rep.Rows {
		if row[1] != "HiEngine" {
			continue
		}
		switch row[0] {
		case "partitioned+local":
			bestRemote = cellFloat(t, row[3])
		case "partitioned+remote":
			worstRemote = cellFloat(t, row[3])
		}
	}
	if worstRemote <= bestRemote {
		t.Fatalf("remote policy did not raise remote fraction: best=%v worst=%v", bestRemote, worstRemote)
	}
}

func TestFig8Shape(t *testing.T) {
	rep := runQuick(t, "fig8")
	// Speedup with more replay threads must be >= 1 (monotone modulo
	// noise on tiny datasets); replay time strings must parse.
	for _, row := range rep.Rows {
		if _, err := time.ParseDuration(row[1]); err != nil {
			t.Fatalf("bad duration %q", row[1])
		}
	}
	last := rep.Rows[len(rep.Rows)-1]
	if sp := cellFloat(t, last[2]); sp < 0.5 {
		t.Fatalf("parallel replay slower than serial: %v", sp)
	}
}

func TestClockBenchShape(t *testing.T) {
	rep := runQuick(t, "clock")
	skipShapes(t)
	// At 3 nodes the global clock must grant faster than the logical one.
	var logical3, global3 float64
	for _, row := range rep.Rows {
		if row[0] != "3" {
			continue
		}
		switch {
		case strings.HasPrefix(row[1], "logical"):
			logical3 = cellFloat(t, row[2])
		case strings.HasPrefix(row[1], "global (eps=10us)"):
			global3 = cellFloat(t, row[2])
		}
	}
	if global3 <= logical3 {
		t.Fatalf("global clock (%v/s) not faster than logical (%v/s) at 3 nodes", global3, logical3)
	}
}

func TestAblationsShape(t *testing.T) {
	rep := runQuick(t, "ablations")
	skipShapes(t)
	byVariant := map[string]string{}
	for _, row := range rep.Rows {
		byVariant[row[0]+"/"+row[1]] = row[2]
	}
	parse := func(k string) time.Duration {
		d, err := time.ParseDuration(byVariant[k])
		if err != nil {
			t.Fatalf("parse %q: %v", byVariant[k], err)
		}
		return d
	}
	if parse("commit persistence/compute-side") >= parse("commit persistence/storage-side") {
		t.Fatal("compute-side commit not cheaper than storage-side")
	}
	if parse("commit pipelining/pipelined") >= parse("commit pipelining/sync") {
		t.Fatal("pipelining did not reduce per-txn time")
	}
	// The checkpoint pair is asserted only at full scale (quick mode's
	// 2k-row table makes the two variants comparable in cost; the 10x gap
	// appears with realistic row counts -- see the root benchmark).
	_ = parse("checkpoint/dataless (PIA only)")
	_ = parse("checkpoint/full-data")
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

// TestEveryExperimentRuns runs the whole registry at quick scale. A service
// runner's correctness conditions (every routed read returns one row,
// streamed rows == loaded rows, no shard error but a tolerated busy, every
// failover client reconverges) are errors of its Run, so they fail here.
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
		})
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
