// Quickstart: open a HiEngine instance, create a table, and run
// transactions against the core engine API -- snapshot-isolated MVCC over
// "the log is the database" storage with compute-side persistence.
package main

import (
	"errors"
	"fmt"
	"log"

	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/srss"
)

func main() {
	// A simulated cloud deployment: three compute nodes with persistent
	// memory, three storage nodes, realistic latencies.
	svc := srss.New(srss.Config{Model: delay.CloudProfile()})
	engine, err := core.Open(core.Config{Service: svc, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	accounts, err := engine.CreateTable(&core.Schema{
		Name: "accounts",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt},
			{Name: "owner", Kind: core.KindString},
			{Name: "balance", Kind: core.KindInt},
		},
		Indexes: []core.IndexDef{
			{Name: "pk", Columns: []int{0}, Unique: true},
			{Name: "by_owner", Columns: []int{1}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Insert two accounts. Commit returns once the redo log is persisted
	// and replicated across the compute tier (microseconds, not a storage
	// round trip).
	tx, _ := engine.Begin(0)
	ada, err := tx.Insert(accounts, core.Row{core.I(1), core.S("ada"), core.I(100)})
	if err != nil {
		log.Fatal(err)
	}
	bob, err := tx.Insert(accounts, core.Row{core.I(2), core.S("bob"), core.I(50)})
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted accounts at RIDs %v and %v\n", ada, bob)

	// A snapshot reader does not observe a concurrent transfer.
	reader, _ := engine.Begin(1)
	transfer, _ := engine.Begin(2)
	row, _ := transfer.Get(accounts, ada)
	_ = transfer.Update(accounts, ada, core.Row{core.I(1), core.S("ada"), core.I(row[2].Int() - 30)})
	row, _ = transfer.Get(accounts, bob)
	_ = transfer.Update(accounts, bob, core.Row{core.I(2), core.S("bob"), core.I(row[2].Int() + 30)})
	if err := transfer.Commit(); err != nil {
		log.Fatal(err)
	}
	row, _ = reader.Get(accounts, ada)
	fmt.Printf("snapshot reader still sees ada = %d (transfer committed meanwhile)\n", row[2].Int())
	reader.Commit()

	// A fresh transaction sees the transfer; lookups go through the
	// primary index.
	fresh, _ := engine.Begin(1)
	_, row, err = fresh.GetByKey(accounts, 0, core.I(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fresh reader sees ada = %d\n", row[2].Int())

	// Secondary-index scan.
	fmt.Println("accounts by owner:")
	_ = fresh.ScanKey(accounts, 1, nil, nil, func(_ core.RID, row core.Row) bool {
		fmt.Printf("  %-4s balance=%d\n", row[1].Str(), row[2].Int())
		return true
	})
	fresh.Commit()

	// Write-write conflicts abort under first-committer-wins.
	t1, _ := engine.Begin(1)
	t2, _ := engine.Begin(2)
	_ = t1.Update(accounts, ada, core.Row{core.I(1), core.S("ada"), core.I(1000)})
	err = t2.Update(accounts, ada, core.Row{core.I(1), core.S("ada"), core.I(2000)})
	fmt.Printf("concurrent writer got: %v\n", err)
	if !errors.Is(err, core.ErrConflict) {
		log.Fatal("expected a write-write conflict")
	}
	if err := t1.Commit(); err != nil {
		log.Fatal(err)
	}

	// The engine's dataless checkpoint persists only indirection arrays.
	csn, err := engine.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataless checkpoint at CSN %d; log holds %d bytes\n", csn, engine.Log().TotalBytes())
	m := engine.Obs()
	fmt.Printf("engine stats: %d commits, %d aborts\n",
		m.Counter("core.commits").Load(), m.Counter("core.aborts").Load())
}
