package bench

import (
	"time"

	"hiengine/internal/clock"
	"hiengine/internal/delay"
)

// ClockBench reproduces the Section 5.3 comparison of timestamp-grant
// mechanisms for the distributed setting: a centralized logical clock
// advanced over one-sided RDMA (latency ~40us at 3 nodes and capped by the
// hosting NIC's ~1.5M packets/s) versus the high-precision global clock
// with a 10-20us uncertainty bound, which grants locally and scales with
// node count.
func ClockBench(o Options) (*Report, error) {
	d := o.dur(500*time.Millisecond, 100*time.Millisecond)
	nodeCounts := []int{1, 3, 6, 12}
	if o.Quick {
		nodeCounts = []int{1, 3}
	}
	const clientsPerNode = 4

	r := &Report{
		ID:       "clock",
		Title:    "Timestamp grant latency/throughput: logical clock vs global clock",
		Expected: "logical clock ~40us average at 3 nodes, degrading with node count (NIC PPS cap); global clock grants at eps=10us (atomic clock) or 20us, ~2x faster and scalable",
		Header:   []string{"nodes", "mechanism", "grants/s", "avg latency"},
	}

	for _, nodes := range nodeCounts {
		o.progress("clock: %d nodes", nodes)
		// The logical clock's RDMA latency grows slightly with fabric
		// contention; model the paper's 40us at 3 nodes.
		m := &delay.Model{RDMAFetchAdd: time.Duration(13+9*nodes) * time.Microsecond}
		for _, c := range []struct {
			name string
			src  clock.Source
		}{
			{"logical (RDMA FAA)", clock.NewLogicalClock(m, nil, 1_500_000)},
			{"global (eps=10us)", clock.NewGlobalClock(10*time.Microsecond, nil)},
			{"global (eps=20us)", clock.NewGlobalClock(20*time.Microsecond, nil)},
		} {
			out, err := drive(load{clients: nodes * clientsPerNode, dur: d}, func(int) (op, error) {
				return func(int64) (int, error) { c.src.Next(); return 0, nil }, nil
			})
			if err != nil {
				return nil, err
			}
			var mean time.Duration
			if n := out.lat[0].Count(); n > 0 {
				mean = time.Duration(out.lat[0].Sum() / n)
			}
			r.row(nodes, c.name, f0(out.rate()), took(mean))
		}
	}
	r.Notes = append(r.Notes,
		"the logical clock's aggregate rate is bounded by the hosting NIC (1.5M PPS model) regardless of node count; the global clock has no shared bottleneck -- the paper's conclusion that a centralized logical clock is not the right choice for distributed HiEngine")
	return r, nil
}
