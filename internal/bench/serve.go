package bench

import (
	"net"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/obs"
	"hiengine/internal/replica"
	"hiengine/internal/server"
	"hiengine/internal/shard"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// nodeWorkers is every served engine's worker (and server slot) count.
const nodeWorkers = 8

// deployment says what one served node is. The zero value is a primary on
// zero-latency storage (the wire is the experiment) on a fresh loopback port.
type deployment struct {
	model      *delay.Model // storage latency model; nil = none
	logStreams int          // core.Config.LogStreams (0 = the engine's default)
	replicaOf  string       // bootstrap from this primary and follow its log
	// A shard node is told its place in the cluster and listens where the
	// map says it does (the map needs every address before any node starts).
	shardMap []byte
	ln       net.Listener
}

// node is one served deployment: engine, SQL front end and wire server on
// a loopback listener, wired the way cmd/hiserver wires them (replication
// source or follower, epoch fencing, 2PC participant, a tracer that answers
// client-forced traces only) without its flags and admin plane.
type node struct {
	engine   *core.Engine // its Obs() registry is the server's too
	srv      *server.Server
	addr     string
	follower *replica.Follower // the log-shipping loop; nil on a primary
}

// serve is the only place an experiment stands a server up.
func serve(d deployment) (*node, error) {
	n, reg := &node{}, obs.NewRegistry("bench-node")
	cfg := core.Config{
		Service:    srss.New(srss.Config{Model: d.model}),
		Workers:    nodeWorkers,
		LogStreams: d.logStreams,
		Obs:        reg,
	}
	var err error
	if d.replicaOf != "" {
		var rep *core.Replica
		if n.follower, rep, err = replica.Bootstrap(d.replicaOf, cfg, core.RecoverOptions{}, reg); err != nil {
			return nil, err
		}
		n.engine = rep.Engine()
	} else if n.engine, err = core.Open(cfg); err != nil {
		return nil, err
	}
	fail := func(err error) (*node, error) {
		n.close()
		if d.ln != nil {
			d.ln.Close()
		}
		return nil, err
	}
	if d.shardMap != nil {
		if err := n.engine.SetShardMap(d.shardMap); err != nil {
			return fail(err)
		}
	}
	front := sqlfront.NewFrontend("hiengine", adapt.New(n.engine))
	scfg := server.Config{
		Frontend:     front,
		WorkerSlots:  nodeWorkers,
		DrainTimeout: 500 * time.Millisecond, // a killed primary must not linger
		Obs:          reg,
		Tracer:       obs.NewTracer(obs.TracerConfig{Registry: reg}),
		Epoch:        n.engine.Epoch,
		ObserveEpoch: n.engine.ObserveEpoch,
		TwoPC:        shard.EngineHooks(n.engine),
		ShardInfo: func() *wire.ShardMap {
			sm, err := wire.DecodeShardMap(n.engine.ShardMapPayload())
			if err != nil {
				return nil
			}
			return sm
		},
	}
	if n.follower != nil {
		// A replica never runs DDL: its catalog is the recovered manifest.
		var schemas []*core.Schema
		for _, name := range n.engine.Tables() {
			if t, err := n.engine.Table(name); err == nil {
				schemas = append(schemas, t.Schema)
			}
		}
		if _, err := front.AdoptAll("hiengine", schemas); err != nil {
			return fail(err)
		}
		scfg.Replica = &server.ReplicaConfig{
			PrimaryAddr: d.replicaOf,
			AppliedCSN:  n.follower.AppliedCSN,
			WaitCSN:     n.follower.WaitCSN,
		}
	} else {
		scfg.ReplSource = replica.NewSource(n.engine)
	}
	if n.srv, err = server.New(scfg); err != nil {
		return fail(err)
	}
	ln := d.ln
	if ln == nil {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return fail(err)
		}
	}
	n.addr = ln.Addr().String()
	go n.srv.Serve(ln)
	if n.follower != nil {
		n.follower.SetInterval(2 * time.Millisecond)
		n.follower.Start()
	}
	return n, nil
}

// close stops the node; it is safe on one serve gave up on half-built.
func (n *node) close() {
	if n.srv != nil {
		n.srv.Close()
	}
	if n.follower != nil {
		n.follower.Stop()
	}
	n.engine.Close()
}

// promote turns a replica node into the primary.
func (n *node) promote() error {
	_, err := n.follower.Promote()
	if err == nil {
		n.srv.Promote(replica.NewSource(n.engine))
	}
	return err
}

// sum adds one of the counters below over nodes. Their differences across a
// run are its host-robust cost.
func sum(nodes []*node, counter func(*node) int64) (total int64) {
	for _, n := range nodes {
		total += counter(n)
	}
	return total
}

// frames is the count of request frames the node's server has read, and
// bytesOut the bytes it has written.
func (n *node) frames() (total int64) {
	for _, op := range wire.RequestOps() {
		total += n.engine.Obs().Counter("server.requests." + op.String()).Load()
	}
	return total
}

func (n *node) bytesOut() int64 { return n.engine.Obs().Counter("server.bytes_out").Load() }

// walAppends is the count of storage appends the node's log streams made.
func (n *node) walAppends() (total int64) {
	lm := n.engine.Log()
	for i := 0; i < lm.Streams(); i++ {
		appends, _, _ := lm.Stream(i).Stats()
		total += appends
	}
	return total
}
