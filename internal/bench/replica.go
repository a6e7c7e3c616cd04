package bench

import (
	"fmt"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
)

// ReplicaFanout measures the paper's Figure 3 service deployment: one
// primary plus log-shipping read replicas over loopback TCP, routed clients
// fanning point SELECTs out across 0..N replicas. Writes route to the
// primary; reads carry the read-your-writes token, so every client observes
// its own writes no matter which replica answers. Replica k starts after
// the k-1 measurement, so the nodes that serve a measurement's reads serve
// nothing else and their request and byte counters divide by the reads.
func ReplicaFanout(o Options) (*Report, error) {
	const rows = 2000
	replicas := 2
	if o.Quick {
		replicas = 1
	}
	clients := o.threads(8, 4)
	d := o.dur(2*time.Second, 500*time.Millisecond)

	primary, err := serve(deployment{})
	if err != nil {
		return nil, err
	}
	nodes := []*node{primary}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	seed, err := client.New(client.Options{Addr: primary.Addr()})
	if err != nil {
		return nil, err
	}
	defer seed.Close()
	if _, err := seed.Exec("CREATE TABLE replbench (id INT, c TEXT, PRIMARY KEY(id))"); err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if _, err := seed.Exec("INSERT INTO replbench VALUES (?, ?)", core.I(int64(i)), core.S("replica-fanout-row")); err != nil {
			return nil, fmt.Errorf("preload row %d: %w", i, err)
		}
	}

	r := &Report{
		ID:     "replica",
		Title:  "Read fan-out across log-shipping replicas",
		Header: []string{"replicas", "reads/s", "frames/read", "bytes out/read"},
	}
	var addrs []string
	for k := 0; k <= replicas; k++ {
		serving := nodes // the primary alone, before it has a follower to ship to
		if k > 0 {
			o.progress("replica: bootstrapping replica %d", k)
			n, err := serve(deployment{replicaOf: primary.Addr()})
			if err != nil {
				return nil, fmt.Errorf("replica %d: %w", k, err)
			}
			nodes = append(nodes, n)
			addrs = append(addrs, n.Addr())
			if !n.follower.WaitCSN(seed.LastCSN(), 30*time.Second) {
				return nil, fmt.Errorf("replica %d never caught up to CSN %d (applied %d)", k, seed.LastCSN(), n.follower.AppliedCSN())
			}
			serving = nodes[1:]
		}
		cl, err := client.New(client.Options{Addr: primary.Addr(), PoolSize: clients, ReplicaAddrs: addrs})
		if err != nil {
			return nil, err
		}
		frames, bytes := sum(serving, (*node).frames), sum(serving, (*node).bytesOut)
		out, err := drive(load{clients: clients, dur: d}, func(c int) (op, error) {
			return func(seq int64) (int, error) {
				key := (int64(c) + seq) % rows
				res, err := cl.Exec("SELECT c FROM replbench WHERE id = ?", core.I(key))
				if err == nil && len(res.Rows) != 1 {
					err = fmt.Errorf("read key %d: %d rows", key, len(res.Rows))
				}
				return 0, err
			}, nil
		})
		frames, bytes = sum(serving, (*node).frames)-frames, sum(serving, (*node).bytesOut)-bytes
		cl.Close()
		if err != nil {
			return nil, err
		}
		reads := float64(out.lat[0].Count())
		r.row(k, f0(out.rate()), f4(float64(frames)/reads), f2(float64(bytes)/reads))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d clients, %d-row table, zero-latency storage; every read returned exactly one row whichever node answered", clients, rows),
		"primary, replicas, followers and clients share this host's CPUs: reads/s says what fan-out costs here, not what it buys on separate hosts; frames and bytes per read hold anywhere")
	if o.Stats {
		r.attachStats(primary.engine.Obs())
	}
	return r, nil
}
