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
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go n.syncLoop(ctx, done)
		n.stopSync = func() { cancel(); <-done }
		f.SetInterval(cfg.Poll)
		f.Start()
	}
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

func (n *Node) syncLoop(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(n.cfg.Poll):
			n.adoptTables()
		}
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
		// transactions and must answer OpTxnRecover/OpTxnDecide for
		// coordinator recovery. The core TxnState values are the
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

// Close stops the wire server, the follower and the catalog re-sync, then
// closes the engine.
func (n *Node) Close() {
	_ = n.Stop() // a drain cut short by its timeout still closed every connection
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
