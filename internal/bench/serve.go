package bench

import (
	"net"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/delay"
	hinode "hiengine/internal/node"
	"hiengine/internal/obs"
	"hiengine/internal/replica"
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

// node is one served deployment on a loopback listener: the engine this
// file opened, behind the assembly cmd/hiserver serves through.
type node struct {
	*hinode.Node
	engine   *core.Engine      // its Obs() registry is the server's too
	follower *replica.Follower // the log-shipping loop; nil on a primary
}

// serve is the only place an experiment stands a server up.
func serve(d deployment) (*node, error) {
	ln := d.ln
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	n, err := d.open()
	if err != nil {
		ln.Close()
		return nil, err
	}
	n.Node, err = hinode.New(n.engine, ln, hinode.Config{
		Follower:     n.follower,
		PrimaryAddr:  d.replicaOf,
		Poll:         2 * time.Millisecond,
		DrainTimeout: 500 * time.Millisecond, // a killed primary must not linger
	})
	if err != nil {
		return nil, err // New closed the engine and the listener
	}
	return n, nil
}

// open opens the deployment's engine: a fresh one, or a read-only one over a
// mirror of the primary's log.
func (d deployment) open() (*node, error) {
	reg := obs.NewRegistry("bench-node")
	cfg := core.Config{
		Service:    srss.New(srss.Config{Model: d.model}),
		Workers:    nodeWorkers,
		LogStreams: d.logStreams,
		Obs:        reg,
	}
	if d.replicaOf != "" {
		f, rep, err := replica.Bootstrap(d.replicaOf, cfg, core.RecoverOptions{}, reg)
		if err != nil {
			return nil, err
		}
		return &node{engine: rep.Engine(), follower: f}, nil
	}
	e, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	if d.shardMap != nil {
		if err := e.SetShardMap(d.shardMap); err != nil {
			e.Close()
			return nil, err
		}
	}
	return &node{engine: e}, nil
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
