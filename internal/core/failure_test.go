package core

import (
	"fmt"
	"testing"

	"hiengine/internal/srss"
)

// TestNodeFailureSealMigration exercises the full seal-and-retry story: a
// compute node fails mid-traffic, sealing the open log segments, the
// segment directory's metadata PLog and the engine manifest; all three must
// migrate to healthy replicas and the engine must stay available and
// recoverable through the management-node registry.
func TestNodeFailureSealMigration(t *testing.T) {
	svc := srss.New(srss.Config{ComputeNodes: 4})
	e, err := Open(Config{Name: "failover-test", Service: svc, Workers: 4, SegmentSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustTable(t, e, usersSchema())

	for i := int64(0); i < 100; i++ {
		insertUser(t, e, tbl, int(i%4), i, "pre-failure", i)
	}
	manifestBefore := e.ManifestID()

	// Fail a node: every PLog with a replica there seals on next write.
	svc.ComputeNode(0).Fail()
	for i := int64(100); i < 300; i++ {
		insertUser(t, e, tbl, int(i%4), i, "post-failure", i)
	}
	// Checkpoints also allocate fresh PLogs and append to the manifest.
	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint during failure: %v", err)
	}
	id, ok := svc.WellKnown("failover-test")
	if !ok {
		t.Fatal("well-known registration lost")
	}
	if id == manifestBefore {
		// Migration only triggers if the old manifest's replica set
		// included the failed node; if it did seal, the registry must
		// have been re-anchored.
		if p, err := svc.Open(manifestBefore); err == nil && p.Sealed() {
			t.Fatal("manifest sealed but well-known ID not re-anchored")
		}
	}

	want := snapshotTable(t, e, "users")
	if len(want) != 300 {
		t.Fatalf("only %d rows present before crash", len(want))
	}
	e.Close()

	// Recover via the management-node registry (the bootstrap path).
	e2, stats, err := RecoverByName(Config{Name: "failover-test", Service: svc, Workers: 4, SegmentSize: 1 << 16},
		RecoverOptions{ReplayThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got := snapshotTable(t, e2, "users")
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d (stats %+v)", len(got), len(want), stats)
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("row %d: got %v want %v", id, got[id], w)
		}
	}
	// Still writable after recovery with the failed node still down.
	tbl2, _ := e2.Table("users")
	tx, err := e2.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tbl2, Row{I(9999), S("post-recovery"), I(0)}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
}

// TestRecoveredEngineCountsStorageEvents: an engine recovered over the
// deployment of a closed one counts the deployment's srss.* events in its own
// registry, not the closed engine's.
func TestRecoveredEngineCountsStorageEvents(t *testing.T) {
	svc := srss.New(srss.Config{})
	cfg := Config{Name: "srss-obs", Service: svc, SegmentSize: 1 << 16}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "before", 1)
	first := e.Obs().Histogram("srss.append_latency_ns")
	e.Close()
	e2, _, err := RecoverByName(cfg, RecoverOptions{ReplayThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	before, closed := e2.Obs().Histogram("srss.append_latency_ns").Count(), first.Count()
	tbl2, _ := e2.Table("users")
	insertUser(t, e2, tbl2, 0, 2, "after", 2)
	if got := e2.Obs().Histogram("srss.append_latency_ns").Count(); got == before {
		t.Errorf("a commit on the recovered engine moved no srss.append_latency_ns in its registry (%d)", got)
	}
	if first.Count() != closed {
		t.Errorf("the closed engine's registry still counts the deployment's appends")
	}
}

// TestRecoverByNameUnknown rejects unregistered names.
func TestRecoverByNameUnknown(t *testing.T) {
	svc := srss.New(srss.Config{})
	if _, _, err := RecoverByName(Config{Name: "ghost", Service: svc}, RecoverOptions{}); err == nil {
		t.Fatal("recovered a ghost engine")
	}
	_ = fmt.Sprint() // keep fmt import if assertions change
}
