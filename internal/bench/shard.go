package bench

import (
	"errors"
	"fmt"
	"net"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/shard"
	"hiengine/internal/wire"
)

// Shard measures sharded scale-out: shard nodes over loopback TCP behind
// the internal/shard router, clients mixing single-shard transactions with
// cross-shard two-key 2PC commits. The same load runs at one shard first
// (no transaction crosses there), so the report shows scaling against the
// unsharded baseline and the latency split between the single-shard path
// and the two-round-trip 2PC path. Each cluster's run ends with one traced
// two-key commit on the idle cluster: the request frames and log appends it
// took, read from the nodes' counters, are what 2PC costs over a local
// commit on any host.
func Shard(o Options) (*Report, error) {
	const shards, crossPct = 3, 10
	clients := o.threads(8, 6)
	d := o.dur(2*time.Second, 500*time.Millisecond)
	r := &Report{
		ID:    "shard",
		Title: "Routed and cross-shard 2PC transactions vs one shard",
		Header: []string{"shards", "txn/s", "cross txns", "busy", "single p50", "single p99",
			"cross p50", "cross p99", "frames/2-key commit", "WAL appends/2-key commit"},
	}
	var rates []float64
	for _, n := range []int{1, shards} {
		o.progress("shard: %d shard(s)", n)
		rate, err := shardRun(r, n, clients, crossPct, d)
		if err != nil {
			return nil, fmt.Errorf("%d shards: %w", n, err)
		}
		rates = append(rates, rate)
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"%d clients, %d%% cross-shard, cloud latency profile (commits wait on replicated storage, so a node's %d worker slots are scarce and one shard saturates); %d shards run at %s of the 1-shard rate on this host's CPUs, which every node shares",
		clients, crossPct, nodeWorkers, shards, ratio(rates[1], rates[0]).text))
	return r, nil
}

// shardRun measures one cluster of n shards and adds its row to r.
func shardRun(r *Report, n, clients, crossPct int, d time.Duration) (float64, error) {
	m, nodes, err := serveShards(n)
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	if err != nil {
		return 0, err
	}
	for id := range nodes {
		cl, err := client.New(client.Options{Addr: m.Addr(uint32(id))})
		if err == nil {
			_, err = cl.Exec("CREATE TABLE shardbench (id INT, v INT, PRIMARY KEY(id))")
			cl.Close()
		}
		if err != nil {
			return 0, fmt.Errorf("shard %d create: %w", id, err)
		}
	}
	rt := shard.NewRouter(m, client.Options{Addr: "routed", PoolSize: clients}, nil)
	defer rt.Close()

	const single, cross = 0, 1
	out, err := drive(load{
		clients: clients,
		dur:     d,
		classes: 2,
		// A saturated node answers busy once its worker slots and slot-wait
		// budget are gone: admission control doing its job.
		tolerate: func(err error) bool { return errors.Is(err, wire.ErrServerBusy) },
	}, func(c int) (op, error) {
		return func(seq int64) (int, error) {
			// Explicit transactions both ways: the worker slot is held
			// until the commit is durable, which is what makes a node's
			// capacity finite under the cloud latency model.
			k := int64(c)<<40 + keyStride*seq
			if n > 1 && int(seq%100) < crossPct {
				k1, k2 := keyPair(m, k)
				return cross, insertTxn(rt, seq, k1, k2)
			}
			return single, insertTxn(rt, seq, k)
		}, nil
	})
	if err != nil {
		return 0, err
	}

	rt.Trace(true)
	frames, appends := sum(nodes, (*node).frames), sum(nodes, (*node).walAppends)
	k1, k2 := keyPair(m, 1<<50)
	if err := insertTxn(rt, 0, k1, k2); err != nil {
		return 0, fmt.Errorf("traced two-key commit: %w", err)
	}
	frames, appends = sum(nodes, (*node).frames)-frames, sum(nodes, (*node).walAppends)-appends
	p := func(class int, q float64) interface{} {
		if out.lat[class].Count() == 0 {
			return "" // nothing crosses at one shard
		}
		return took(time.Duration(out.lat[class].Quantile(q)))
	}
	r.row(n, f0(out.rate()), f0(float64(out.lat[cross].Count())), f0(float64(out.tolerated.Load())),
		p(single, 0.50), p(single, 0.99), p(cross, 0.50), p(cross, 0.99),
		f0(float64(frames)), f0(float64(appends)))
	if t := rt.LastDistTrace(); n > 1 && t != nil {
		us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
		r.Notes = append(r.Notes, fmt.Sprintf("traced 2PC commit %d: total=%v prepare=%v decide=%v fanout=%v shards=%d hops=%d",
			t.TraceID, us(t.Total), us(t.Prepare), us(t.Decide), us(t.Fanout), t.Shards, len(t.Hops)))
		for _, h := range t.Hops {
			line := fmt.Sprintf("  hop %d shard %d %-11s offset=%v rtt=%v", h.Hop, h.Shard, h.Op, us(h.Start), us(h.RTT))
			if h.Info != nil {
				line += fmt.Sprintf(" server=%v", us(time.Duration(h.Info.TotalNS)))
				for _, st := range h.Info.Stages {
					line += fmt.Sprintf(" %s=%v", st.Stage, us(time.Duration(st.DurNS)))
				}
			}
			r.Notes = append(r.Notes, line)
		}
	}
	return out.rate(), nil
}

// serveShards brings up n shard nodes over pre-reserved loopback listeners
// and returns the routed topology. Unlike the other service experiments it
// models the cloud deployment's storage latency. The nodes started so far
// are returned with an error, for the caller to close.
func serveShards(n int) (*shard.Map, []*node, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	release := func(from int) { // listeners no node took over
		for _, ln := range lns[from:] {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			release(0)
			return nil, nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	m, err := shard.NewMap(1, addrs)
	if err != nil {
		release(0)
		return nil, nil, err
	}
	var nodes []*node
	for i, ln := range lns {
		self := shard.Map{ShardMap: m.ShardMap}
		self.SelfID = uint32(i)
		nd, err := serve(deployment{model: delay.CloudProfile(), shardMap: self.Encode(), ln: ln})
		if err != nil {
			release(i + 1)
			return nil, nodes, err
		}
		nodes = append(nodes, nd)
	}
	return m, nodes, nil
}

// keyStride spaces a client's keys so that keyPair's neighbour search never
// reaches the next transaction's key.
const keyStride = 64

// keyPair returns k and a nearby key that lives on another shard when the
// map has one, ordered by ascending shard id. Every participant session
// holds a worker slot for the whole transaction, so 2PC writers that took
// slots in arbitrary order could wait on each other in a circle across
// shards and collapse the run into slot-wait timeouts; one order makes the
// cycle impossible.
func keyPair(m *shard.Map, k int64) (int64, int64) {
	k2 := k + 1
	for m.N() > 1 && m.ShardOfInt(k2) == m.ShardOfInt(k) {
		k2++
	}
	if m.ShardOfInt(k2) < m.ShardOfInt(k) {
		return k2, k
	}
	return k, k2
}

// insertTxn inserts keys in one routed transaction: an ordinary commit when
// they share a shard, presumed-abort 2PC when they do not.
func insertTxn(rt *shard.Router, v int64, keys ...int64) error {
	tx := rt.Begin()
	for _, k := range keys {
		if _, err := tx.Exec(k, "INSERT INTO shardbench VALUES (?, ?)", core.I(k), core.I(v)); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}
