package bench

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
)

// errOutage marks a write that failed between the kill and its client's
// first ack from the promoted node: the outage being measured.
var errOutage = errors.New("primary outage")

// Failover measures what a primary crash costs the write path. A primary
// and one log-shipping replica run over loopback TCP; failover clients
// issue autocommit inserts while the primary is killed and the replica
// promoted. Per trial:
//
//   - time-to-promote: kill to writable on the promoted node (final
//     catch-up drain, tail seal, epoch bump, role flip);
//   - write gap: per client, the silence that spans the kill -- its last
//     ack from the old primary to its first from the promoted node, i.e.
//     the outage as the application felt it, rediscovery and backoff
//     included;
//   - frames per acked write once every client has reconverged: 1 means a
//     client that found the new primary stays on it.
func Failover(o Options) (*Report, error) {
	const trials = 3
	clients := o.threads(4, 3)
	d := o.dur(time.Second, 300*time.Millisecond)
	r := &Report{
		ID:    "failover",
		Title: "Primary kill: time-to-promote and client write gap",
		Header: []string{"trial", "time-to-promote", "write gap p50", "write gap max",
			"acked before kill", "acked after promote", "frames/acked write after"},
	}
	var all []time.Duration
	for trial := 0; trial < trials; trial++ {
		o.progress("failover: trial %d", trial)
		t, err := failoverTrial(trial, clients, d)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", trial, err)
		}
		slices.Sort(t.gaps)
		r.row(trial, took(t.promote), took(t.gaps[len(t.gaps)/2]), took(t.gaps[len(t.gaps)-1]),
			f0(float64(t.before)), f0(float64(t.after)), f4(t.framesPerWrite))
		all = append(all, t.gaps...)
	}
	slices.Sort(all)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"%d clients, %v of steady state either side of the kill; over all clients and trials the write gap is p50 %v, max %v; every client reconverged on the promoted node",
		clients, d, all[len(all)/2].Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond)))
	return r, nil
}

type failoverResult struct {
	promote        time.Duration
	gaps           []time.Duration // one per client
	before, after  int64
	framesPerWrite float64
}

func failoverTrial(trial, clients int, d time.Duration) (*failoverResult, error) {
	// One log stream: the shipped watermark is prefix-exact (see the
	// failover tests).
	primary, err := serve(deployment{logStreams: 1})
	if err != nil {
		return nil, err
	}
	defer primary.Close()
	seed, err := client.New(client.Options{Addr: primary.Addr()})
	if err != nil {
		return nil, err
	}
	_, err = seed.Exec("CREATE TABLE failover (id INT, c TEXT, PRIMARY KEY(id))")
	seed.Close()
	if err != nil {
		return nil, err
	}
	standby, err := serve(deployment{logStreams: 1, replicaOf: primary.Addr()})
	if err != nil {
		return nil, err
	}
	defer standby.Close()

	// writer is one client's view: when the old primary last acked it, when
	// the promoted node first did (UnixNano; 0 = not yet), and how many
	// acks each gave it.
	type writer struct{ lastOld, firstNew, before, after atomic.Int64 }
	var (
		res     failoverResult
		writers = make([]writer, clients)
		conns   = make([]*client.Client, clients)
		killed  atomic.Bool
	)
	defer func() {
		for _, cl := range conns {
			if cl != nil {
				cl.Close()
			}
		}
	}()
	ackedAfter := func() (n int64) {
		for i := range writers {
			n += writers[i].after.Load()
		}
		return n
	}
	_, err = drive(load{
		clients:  clients,
		tolerate: func(err error) bool { return errors.Is(err, errOutage) },
		script: func() error {
			time.Sleep(d) // steady state on the old primary
			t0 := time.Now()
			killed.Store(true)
			primary.Stop()
			if _, err := standby.Promote(); err != nil {
				return fmt.Errorf("promote: %w", err)
			}
			res.promote = time.Since(t0)
			for c := range writers {
				if !waitFor(10*time.Second, func() bool { return writers[c].firstNew.Load() != 0 }) {
					return fmt.Errorf("client %d never reconverged on the promoted node", c)
				}
			}
			frames, acked := standby.frames(), ackedAfter()
			time.Sleep(d) // steady state on the promoted node
			res.framesPerWrite = float64(standby.frames()-frames) / float64(ackedAfter()-acked)
			return nil
		},
	}, func(c int) (op, error) {
		cl, err := client.New(client.Options{
			Addr:            primary.Addr(),
			ReplicaAddrs:    []string{standby.Addr()},
			DialTimeout:     500 * time.Millisecond,
			MaxRetries:      2,
			FailoverRetries: 12,
			FailoverBase:    5 * time.Millisecond,
			FailoverMax:     100 * time.Millisecond,
			Seed:            uint64(trial*100 + c + 1),
		})
		if err != nil {
			return nil, err
		}
		conns[c] = cl
		w := &writers[c]
		return func(seq int64) (int, error) {
			_, err := cl.Exec("INSERT INTO failover VALUES (?, ?)", core.I(int64(c)*1_000_000_000+seq), core.S("x"))
			now := time.Now().UnixNano()
			switch {
			case err != nil && killed.Load() && w.firstNew.Load() == 0:
				return 0, fmt.Errorf("%w: %v", errOutage, err)
			case err != nil:
				return 0, err
			case cl.PrimaryAddr() == primary.Addr():
				w.lastOld.Store(now)
				w.before.Add(1)
			default:
				w.firstNew.CompareAndSwap(0, now)
				w.after.Add(1)
			}
			return 0, nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for c := range writers {
		w := &writers[c]
		if w.lastOld.Load() == 0 {
			return nil, fmt.Errorf("client %d was never acked by the old primary", c)
		}
		res.gaps = append(res.gaps, time.Duration(w.firstNew.Load()-w.lastOld.Load()))
		res.before += w.before.Load()
		res.after += w.after.Load()
	}
	return &res, nil
}

// waitFor polls cond until it holds or limit has passed.
func waitFor(limit time.Duration, cond func() bool) bool {
	for end := time.Now().Add(limit); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}
