// Package node stands one HiEngine node up, the one way every deployment
// does: cmd/hiserver, the internal/bench service experiments and the replica
// and shard test harnesses all serve through New. The caller opens the
// engine -- core.Open, core.Recover over a surviving service, or
// replica.Bootstrap -- because how the engine came to be is the one thing
// the sites differ in; the node does everything after that: the SQL front
// end and its catalog, the wire server with epoch fencing, the shard map and
// the 2PC participant surface, the replication source or the follower loop
// by role, and the status, readiness and promotion an admin plane serves.
package node

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/obs"
	"hiengine/internal/replica"
	"hiengine/internal/server"
	"hiengine/internal/sqlfront"
	"hiengine/internal/wire"
)

// defaultEngine is the name the node's own engine is registered under.
const defaultEngine = "hiengine"

// inDoubtAfter is how long a gtid stays in doubt here before this node
// terminates it itself. A live coordinator decides within one prepare and
// one decide round trip -- an acked 2PC commit's p99 in the 2PC torture
// under the race detector is 1-20 ms on 2 vCPUs -- so a second is fifty
// times that: past it the coordinator is presumed dead, and ending the
// transaction early costs an abort at worst, never atomicity (see
// terminate).
const inDoubtAfter = time.Second

// Config is what the sites set differently. Everything else a node needs it
// reads off its engine: worker slots, the metrics registry (Engine.Obs), the
// chaos engine (its storage service's) and the shard map (its manifest's).
type Config struct {
	// Follower and PrimaryAddr make the node a read replica: the follower
	// replica.Bootstrap returned with the engine, not yet started, and the
	// primary address it was given (advertised in the greeting).
	Follower    *replica.Follower
	PrimaryAddr string
	// Poll is the follower's poll interval, and the interval at which the
	// front end adopts tables replay has created (default 10ms).
	Poll time.Duration
	// ReadyMaxLag fails a replica's Ready once lag_csn exceeds it (0 = lag
	// never gates readiness).
	ReadyMaxLag int64
	// Engines are registered beside the node's own (WITH ENGINE=<name>).
	Engines map[string]engineapi.DB
	// The wire server's limits; zero takes server.Config's default.
	MaxConns, MaxInFlight int
	DrainTimeout          time.Duration
	// TraceSample head-samples 1 in N requests and TraceSlow keeps every
	// trace at least that slow (0 = off); a request the client flags is
	// traced whatever the policy.
	TraceSample int
	TraceSlow   time.Duration
}

// Node is one served engine.
type Node struct {
	engine *core.Engine
	front  *sqlfront.Frontend
	tracer *obs.Tracer
	cfg    Config

	cur atomic.Pointer[serving]

	// A replica's catalog re-sync loop: stopSync ends it, at promotion or Close.
	stopSync func()
	// The in-doubt terminator: stopTerm ends it at Close. doubtMu guards
	// doubtSince, each in-doubt gtid's first-seen time.
	stopTerm   func()
	doubtMu    sync.Mutex
	doubtSince map[string]time.Time
}

// serving is one life of the wire server: Stop ends it, Serve starts the next.
type serving struct {
	srv  *server.Server
	addr string
	stop sync.Once     // the drain; a second Stop waits for the first's
	done chan struct{} // closed once the accept loop has returned
	err  error         // what it returned; valid once done is closed
}

// New serves engine on ln. The node owns both from here: Close closes them.
func New(engine *core.Engine, ln net.Listener, cfg Config) (*Node, error) {
	if cfg.Poll <= 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	n := &Node{
		engine: engine,
		front:  sqlfront.NewFrontend(defaultEngine, adapt.New(engine)),
		tracer: obs.NewTracer(obs.TracerConfig{
			SampleEvery: cfg.TraceSample, SlowThreshold: cfg.TraceSlow, Registry: engine.Obs(),
		}),
		cfg: cfg,
	}
	for name, db := range cfg.Engines {
		n.front.Register(name, db)
	}
	// A recovered engine and a replica's have tables no CREATE TABLE ran
	// here for; on a fresh engine there is nothing to adopt.
	n.adoptTables()
	if err := n.Serve(ln); err != nil {
		ln.Close()
		engine.Close()
		return nil, err
	}
	if f := cfg.Follower; f != nil {
		n.stopSync = every(cfg.Poll, func(context.Context) { n.adoptTables() })
		f.SetInterval(cfg.Poll)
		f.Start()
	}
	n.stopTerm = every(inDoubtAfter/4, n.terminate)
	return n, nil
}

// adoptTables adopts every engine table the front end does not know yet. A
// replica never runs DDL: replay creates its tables, after bootstrap too.
func (n *Node) adoptTables() {
	var schemas []*core.Schema
	for _, name := range n.engine.Tables() {
		if t, err := n.engine.Table(name); err == nil {
			schemas = append(schemas, t.Schema)
		}
	}
	// AdoptAll fails only for an engine name that is not registered.
	_, _ = n.front.AdoptAll(defaultEngine, schemas)
}

// every runs fn each interval on its own goroutine; the returned stop ends
// it, waits for it, and may be called again.
func every(interval time.Duration, fn func(ctx context.Context)) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(interval):
				fn(ctx)
			}
		}
	}()
	return func() { cancel(); <-done }
}

// terminate is one tick of the participant's in-doubt rule, cooperative
// termination under presumed abort. It notes when each in-doubt gtid was
// first seen; on a primary with a shard map, a gtid in doubt for
// inDoubtAfter gets the coordinator's decision from the one place that has
// it. At its home the node aborts: the home has no durable decision, so no
// client was told commit, and the abort record is itself the fence a late
// commit decision or prepare fails on. Elsewhere it asks the home
// OpTxnStatus: commit there is commit here; anything else is abort, but
// only once the home has acked an abort decision first, so the home is
// fenced before any participant lets go. A failure waits for the next
// tick. With nothing in doubt no frame is sent and no record written.
func (n *Node) terminate(ctx context.Context) {
	gtids := n.engine.InDoubt()
	now := time.Now()
	since := make(map[string]time.Time, len(gtids))
	var due []string
	n.doubtMu.Lock()
	for _, g := range gtids {
		t0, ok := n.doubtSince[g]
		if !ok {
			t0 = now
		}
		since[g] = t0
		if now.Sub(t0) >= inDoubtAfter {
			due = append(due, g)
		}
	}
	n.doubtSince = since
	n.doubtMu.Unlock()
	if len(due) == 0 || n.following() {
		return
	}
	sm := n.shardMap()
	for _, g := range due {
		if sm == nil || ctx.Err() != nil {
			return
		}
		_ = n.terminateOne(ctx, sm, g) // a failure: the gtid is due again at the next tick
	}
}

// terminateOne applies terminate's rule to one gtid.
func (n *Node) terminateOne(ctx context.Context, sm *wire.ShardMap, gtid string) error {
	home, err := wire.HomeShard(gtid)
	if err != nil {
		return err
	}
	commit := false
	if home != sm.SelfID {
		if int(home) >= len(sm.Addrs) {
			return fmt.Errorf("node: gtid %s names shard %d of %d", gtid, home, len(sm.Addrs))
		}
		c, err := client.New(client.Options{Addr: sm.Addrs[home]})
		if err != nil {
			return err
		}
		defer c.Close()
		s, err := c.Session()
		if err != nil {
			return err
		}
		defer s.Close()
		st, _, err := s.TxnStatus(gtid)
		if err != nil {
			return err
		}
		if commit = st == wire.TxnCommitted; !commit {
			if _, err := s.TxnDecide(gtid, false); err != nil {
				return err
			}
		}
	}
	done := make(chan error, 1)
	if err := n.engine.Resolve(gtid, commit, func(_ uint64, err error) { done <- err }); err != nil {
		return err
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Serve starts a wire server on ln in the node's current role. New calls
// it; a caller does after Stop, to bring a killed node back over the same
// live engine.
func (n *Node) Serve(ln net.Listener) error {
	e, cfg := n.engine, n.cfg
	scfg := server.Config{
		Frontend:     n.front,
		WorkerSlots:  e.Workers(),
		MaxConns:     cfg.MaxConns,
		MaxInFlight:  cfg.MaxInFlight,
		DrainTimeout: cfg.DrainTimeout,
		Obs:          e.Obs(),
		Tracer:       n.tracer,
		Chaos:        e.Service().Chaos(),
		Stats:        func() string { return StatsLine(e) + "\n" },
		Epoch:        e.Epoch,
		ObserveEpoch: e.ObserveEpoch,
		ShardInfo:    n.shardMap,
		// Unconditional: a promoted replica adopts its primary's prepared
		// transactions and must answer a peer's OpTxnStatus/OpTxnDecide when
		// it is their home. The core TxnState values are the
		// wire-stable bytes (Unknown=0, InDoubt=1, Committed=2, Aborted=3).
		TwoPC: &server.TwoPCConfig{
			Resolve: e.Resolve,
			Status: func(gtid string) (byte, uint64) {
				st, csn := e.TxnStatus(gtid)
				return byte(st), csn
			},
			InDoubt: e.InDoubt,
			Forget:  e.Forget,
		},
	}
	if f := cfg.Follower; n.following() {
		scfg.Replica = &server.ReplicaConfig{
			PrimaryAddr: cfg.PrimaryAddr,
			AppliedCSN:  f.AppliedCSN,
			WaitCSN:     f.WaitCSN,
		}
	} else {
		scfg.ReplSource = replica.NewSource(e)
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	cur := &serving{srv: srv, addr: ln.Addr().String(), done: make(chan struct{})}
	n.cur.Store(cur)
	go func() {
		cur.err = srv.Serve(ln)
		close(cur.done)
	}()
	return nil
}

// following reports whether the node is a replica still: Follower.Promote
// makes the engine writable.
func (n *Node) following() bool { return n.cfg.Follower != nil && n.engine.ReadOnly() }

// Wait blocks until the wire server has stopped accepting and returns the
// accept loop's error (nil after Stop or Close).
func (n *Node) Wait() error {
	cur := n.cur.Load()
	<-cur.done
	return cur.err
}

// Stop drains and stops the wire server alone -- a killed process whose
// engine survives; Serve brings it back. It returns once the drain is over,
// whoever began it, with the drain's error if this call did.
func (n *Node) Stop() (err error) {
	cur := n.cur.Load()
	cur.stop.Do(func() { err = cur.srv.Close() })
	<-cur.done
	return err
}

// Close stops the wire server, the in-doubt terminator, the follower and
// the catalog re-sync, then closes the engine.
func (n *Node) Close() {
	_ = n.Stop() // a drain cut short by its timeout still closed every connection
	n.stopTerm()
	if f := n.cfg.Follower; f != nil {
		n.stopSync()
		f.Stop()
	}
	n.engine.Close()
}

// Promote turns a replica node into the primary: the follower seals its
// shipped log and the engine starts writing at a bumped epoch, the front end
// adopts what the final catch-up replayed, and the wire server flips roles
// so greetings advertise the new primary. Idempotent, and safe to call
// concurrently (the follower serializes promotions; every step after it can
// run twice); a node that is primary already answers its epoch. On error
// nothing has changed and Promote may be retried.
func (n *Node) Promote() (uint64, error) {
	f := n.cfg.Follower
	if f == nil {
		return n.engine.Epoch(), nil
	}
	epoch, err := f.Promote()
	if err != nil {
		return 0, err
	}
	// From here DDL runs through the front end itself.
	n.stopSync()
	n.adoptTables()
	n.cur.Load().srv.Promote(replica.NewSource(n.engine))
	return epoch, nil
}

// Addr is the address the wire server listens on.
func (n *Node) Addr() string { return n.cur.Load().addr }

// Tracer is the node's request tracer (an admin plane serves its rings).
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

func (n *Node) shardMap() *wire.ShardMap {
	sm, _ := wire.DecodeShardMap(n.engine.ShardMapPayload()) // nil with the error: no map persisted, sharding is off
	return sm
}

// StatsLine is the one-line engine summary OpStats responses lead with,
// read off the engine's registry.
func StatsLine(e *core.Engine) string {
	c := e.Obs().Counter
	return fmt.Sprintf("commits=%d aborts=%d conflicts=%d reclaimed=%d checkpoints=%d compactions=%d log=%dB",
		c("core.commits").Load(), c("core.aborts").Load(), c("core.conflicts").Load(),
		c("core.gc_reclaimed_versions").Load(), c("core.checkpoints").Load(), c("core.compactions").Load(),
		e.Log().TotalBytes())
}

// Status is the node's live /statusz block. The replication watermarks are
// a replica's: a promoted node reports none.
func (n *Node) Status() map[string]any {
	e := n.engine
	st := map[string]any{
		"role":         "primary",
		"epoch":        e.Epoch(),
		"fenced_by":    e.FencedBy(),
		"fenced":       e.Fenced(),
		"cursors_open": n.cur.Load().srv.CursorsOpen(),
		"indoubt_2pc":  e.InDoubt(),
	}
	var oldest time.Duration
	n.doubtMu.Lock()
	for _, t0 := range n.doubtSince {
		oldest = max(oldest, time.Since(t0))
	}
	n.doubtMu.Unlock()
	st["indoubt_oldest_ms"] = oldest.Milliseconds()
	if f := n.cfg.Follower; n.following() {
		st["role"] = "replica"
		st["applied_csn"] = f.AppliedCSN()
		st["lag_csn"] = f.LagCSN()
		if err := f.Err(); err != nil {
			st["poll_error"] = err.Error()
		}
		if ti := f.LastFetchTrace(); ti != nil {
			st["repl_fetch_us"] = ti.TotalNS / 1000
		}
	} else if f != nil {
		st["role"] = "primary (promoted)"
	}
	if sm := n.shardMap(); sm != nil {
		st["shard"] = map[string]any{
			"id":          sm.SelfID,
			"shards":      len(sm.Addrs),
			"map_version": sm.Version,
			"addrs":       sm.Addrs,
		}
	}
	return st
}

// Ready is the /healthz gate: a fenced engine, a draining server or a
// replica lagging past ReadyMaxLag is not ready, and the error says why with
// its numbers, so load balancers stop routing to a node that would refuse or
// serve stale.
func (n *Node) Ready() error {
	if e := n.engine; e.Fenced() {
		return fmt.Errorf("fenced by epoch %d (own epoch %d)", e.FencedBy(), e.Epoch())
	}
	if n.cur.Load().srv.Draining() {
		return fmt.Errorf("draining")
	}
	if limit := n.cfg.ReadyMaxLag; limit > 0 && n.following() {
		if lag := n.cfg.Follower.LagCSN(); lag > limit {
			return fmt.Errorf("replica lagging: lag_csn %d > %d", lag, limit)
		}
	}
	return nil
}
