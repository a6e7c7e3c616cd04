// Read-only replicas (Section 3.1): spawn additional compute-side instances
// on demand from the shared log. The replica recovers from the primary's
// manifest (dataless: pointers only), then follows the log with CatchUp;
// freshness is whatever the catch-up cadence buys. The compute tier's log
// is the only copy: nothing archives it to the storage tier (DESIGN.md
// deviation 14).
package main

import (
	"errors"
	"fmt"
	"log"

	"hiengine/internal/core"
	"hiengine/internal/srss"
)

func main() {
	svc := srss.New(srss.Config{})
	primary, err := core.Open(core.Config{Name: "primary", Service: svc, Workers: 4, SegmentSize: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()

	tbl, err := primary.CreateTable(&core.Schema{
		Name: "readings",
		Columns: []core.Column{
			{Name: "sensor", Kind: core.KindInt},
			{Name: "value", Kind: core.KindFloat},
		},
		Indexes: []core.IndexDef{{Name: "pk", Columns: []int{0}, Unique: true}},
	})
	if err != nil {
		log.Fatal(err)
	}
	write := func(sensor int64, value float64) {
		tx, _ := primary.Begin(0)
		if _, _, err := tx.GetByKey(tbl, 0, core.I(sensor)); errors.Is(err, core.ErrNotFound) {
			_, err = tx.Insert(tbl, core.Row{core.I(sensor), core.F(value)})
			if err != nil {
				log.Fatal(err)
			}
		} else {
			rid, _, _ := tx.GetByKey(tbl, 0, core.I(sensor))
			if err := tx.Update(tbl, rid, core.Row{core.I(sensor), core.F(value)}); err != nil {
				log.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	for i := int64(0); i < 1000; i++ {
		write(i%100, float64(i))
	}
	if _, err := primary.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("primary: 1000 writes committed, checkpoint taken")

	// Spawn a replica from the shared log.
	rep, stats, err := core.OpenReplica(core.Config{Name: "replica", Service: svc, Workers: 2, SegmentSize: 1 << 20},
		primary.ManifestID(), core.RecoverOptions{ReplayThreads: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer rep.Close()
	fmt.Printf("replica spawned: checkpoint entries=%d, segments skipped=%d, replay %v\n",
		stats.CheckpointEntries, stats.SegmentsSkipped, stats.ReplayDuration)

	rtbl, _ := rep.Engine().Table("readings")
	readReplica := func(sensor int64) (float64, bool) {
		tx, _ := rep.Engine().Begin(0)
		defer tx.Commit()
		_, row, err := tx.GetByKey(rtbl, 0, core.I(sensor))
		if err != nil {
			return 0, false
		}
		return row[1].Float(), true
	}
	v, _ := readReplica(42)
	fmt.Printf("replica reads sensor 42 = %.0f\n", v)

	// Primary keeps writing; the replica lags until it catches up.
	for i := int64(1000); i < 1500; i++ {
		write(i%100, float64(i))
	}
	stale, _ := readReplica(42)
	n, err := rep.CatchUp()
	if err != nil {
		log.Fatal(err)
	}
	fresh, _ := readReplica(42)
	fmt.Printf("sensor 42: replica lagged at %.0f, caught up %d records, now %.0f (applied CSN %d)\n",
		stale, n, fresh, rep.AppliedCSN())

	// Writes on the replica are rejected.
	tx, _ := rep.Engine().Begin(1)
	if _, err := tx.Insert(rtbl, core.Row{core.I(9999), core.F(0)}); !errors.Is(err, core.ErrReadOnlyReplica) {
		log.Fatalf("replica accepted a write: %v", err)
	}
	tx.Commit()
	fmt.Println("replica rejects writes (read-only)")
}
