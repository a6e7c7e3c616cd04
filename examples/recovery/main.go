// Recovery walkthrough: demonstrates HiEngine's "log is the database"
// durability pipeline end to end -- redo-only multi-stream logging, a
// dataless checkpoint, a simulated compute-node failure mid-write (the
// SRSS PLog seals and the log manager retries on fresh replicas), a crash,
// and parallel newest-CSN-wins replay that reconstructs the indirection
// arrays without loading record data.
package main

import (
	"fmt"
	"log"

	"hiengine/internal/core"
	"hiengine/internal/srss"
)

func main() {
	svc := srss.New(srss.Config{ComputeNodes: 4})
	engine, err := core.Open(core.Config{Service: svc, Workers: 4, SegmentSize: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}

	schema := &core.Schema{
		Name: "events",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt},
			{Name: "kind", Kind: core.KindString},
			{Name: "payload", Kind: core.KindString},
		},
		Indexes: []core.IndexDef{{Name: "pk", Columns: []int{0}, Unique: true}},
	}
	events, err := engine.CreateTable(schema)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: committed data before the checkpoint.
	for i := int64(0); i < 500; i++ {
		tx, _ := engine.Begin(int(i % 4))
		if _, err := tx.Insert(events, core.Row{core.I(i), core.S("pre"), core.S("checkpointed")}); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	csn, err := engine.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataless checkpoint at CSN %d (only PIA entries were persisted)\n", csn)

	// Phase 2: a compute node fails mid-traffic. Appends to PLogs hosted
	// on it seal; the log manager transparently rotates to segments on
	// healthy replicas (Section 2.2's seal-and-retry contract).
	svc.ComputeNode(0).Fail()
	fmt.Println("compute node 0 FAILED; continuing to commit through surviving replicas")
	for i := int64(500); i < 800; i++ {
		tx, _ := engine.Begin(int(i % 4))
		if _, err := tx.Insert(events, core.Row{core.I(i), core.S("post"), core.S("survived node failure")}); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	// Update a slice of pre-checkpoint rows so replay must override
	// checkpointed addresses (newest-CSN-wins).
	for i := int64(0); i < 100; i += 10 {
		tx, _ := engine.Begin(0)
		rid, _, err := tx.GetByKey(events, 0, core.I(i))
		if err != nil {
			log.Fatal(err)
		}
		if err := tx.Update(events, rid, core.Row{core.I(i), core.S("pre"), core.S("updated after ckpt")}); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 3: a transaction that never commits -- it must not survive.
	tx, _ := engine.Begin(1)
	if _, err := tx.Insert(events, core.Row{core.I(9999), core.S("ghost"), core.S("uncommitted")}); err != nil {
		log.Fatal(err)
	}
	manifest := engine.ManifestID()
	engine.Close()
	fmt.Println("CRASH (one transaction was left uncommitted)")

	// Phase 4: recover with parallel replay.
	engine2, stats, err := core.Recover(core.Config{Service: svc, Workers: 4, SegmentSize: 1 << 20},
		manifest, core.RecoverOptions{ReplayThreads: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer engine2.Close()
	fmt.Printf("recovered: checkpoint entries=%d, segments=%d, records scanned=%d applied=%d\n",
		stats.CheckpointEntries, stats.SegmentsScanned, stats.RecordsScanned, stats.RecordsApplied)
	fmt.Printf("tail replay %v, image pass %v (%d image keys), tail keys %v (%d keys)\n",
		stats.ReplayDuration-stats.CheckpointLoadDuration, stats.CheckpointLoadDuration, stats.ImageKeys,
		stats.IndexDuration, stats.IndexKeys-stats.ImageKeys)

	events2, _ := engine2.Table("events")
	check, _ := engine2.Begin(0)
	count := 0
	updated := 0
	check.ScanKey(events2, 0, nil, nil, func(_ core.RID, row core.Row) bool {
		count++
		if row[2].Str() == "updated after ckpt" {
			updated++
		}
		if row[1].Str() == "ghost" {
			log.Fatal("uncommitted data resurrected!")
		}
		return true
	})
	check.Commit()
	fmt.Printf("recovered %d rows (%d post-checkpoint updates won over checkpointed versions)\n", count, updated)
	if count != 800 || updated != 10 {
		log.Fatalf("unexpected recovered state: count=%d updated=%d", count, updated)
	}
	fmt.Println("state verified: committed data intact, uncommitted data gone")
}
