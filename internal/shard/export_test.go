package shard

import (
	"fmt"

	"hiengine/internal/chaos"
	"hiengine/internal/client"
)

// GTID returns the global transaction id, or "" unless Commit took the
// cross-shard 2PC path. After an unknown-outcome commit error, the caller
// can learn the authoritative result by asking the gtid's home shard
// (Session.TxnStatus) once it is reachable again.
func (t *Txn) GTID() string { return t.gtid }

// Bootstrap builds a router by asking any cluster member for the shard map
// (OpShardMap): clients need one address, not the topology.
func Bootstrap(addr string, opts client.Options, ch *chaos.Engine) (*Router, error) {
	bo := opts
	bo.Addr = addr
	cl, err := client.New(bo)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	s, err := cl.Session()
	if err != nil {
		return nil, err
	}
	wm, err := s.ShardMap(false, 0)
	s.Close()
	if err != nil {
		return nil, fmt.Errorf("shard: bootstrap from %s: %w", addr, err)
	}
	return NewRouter(&Map{*wm}, opts, ch), nil
}
