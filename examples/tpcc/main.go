// TPC-C on HiEngine: loads the full nine-table schema and runs the standard
// five-transaction mix (NewOrder 45 / Payment 43 / OrderStatus 4 / Delivery
// 4 / StockLevel 4) with pipelined commits, then verifies the TPC-C
// consistency conditions.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/srss"
	"hiengine/internal/workload/tpcc"
)

func main() {
	var (
		warehouses = flag.Int("warehouses", 4, "warehouse count")
		threads    = flag.Int("threads", 4, "terminal threads (bound to warehouses)")
		duration   = flag.Duration("duration", 3*time.Second, "measurement duration")
		full       = flag.Bool("full-scale", false, "specification-scale data (100k items, 3k customers/district)")
	)
	flag.Parse()

	engine, err := core.Open(core.Config{
		Service: srss.New(srss.Config{Model: delay.CloudProfile()}),
		Workers: *threads + 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	db := adapt.New(engine)

	scale := tpcc.BenchScale()
	if *full {
		scale = tpcc.FullScale()
	}
	fmt.Printf("loading %d warehouses (%d items, %d customers/district)...\n",
		*warehouses, scale.Items, scale.Customers)
	start := time.Now()
	if err := tpcc.Load(db, *warehouses, scale, *threads); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded in %v (%0.1f MB of log)\n",
		time.Since(start).Round(time.Millisecond),
		float64(engine.Log().TotalBytes())/(1<<20))

	driver := tpcc.NewDriver(tpcc.Config{
		DB:            db,
		Warehouses:    *warehouses,
		Threads:       *threads,
		Scale:         scale,
		Duration:      *duration,
		Partitioned:   true,
		PipelineDepth: 8,
	})
	fmt.Printf("running the 45/43/4/4/4 mix for %v...\n", *duration)
	res, err := driver.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	m := engine.Obs()
	fmt.Printf("engine: %d commits, %d aborts, %d conflicts, %d versions reclaimed\n",
		m.Counter("core.commits").Load(), m.Counter("core.aborts").Load(),
		m.Counter("core.conflicts").Load(), m.Counter("core.gc_reclaimed_versions").Load())

	if err := driver.Verify(); err != nil {
		log.Fatalf("TPC-C consistency check failed: %v", err)
	}
	fmt.Println("TPC-C consistency conditions hold")
}
