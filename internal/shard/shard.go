// Package shard adds horizontal scale-out to the single-node engine: a
// static hash-partitioned shard map routes each primary key to the node
// that owns it, single-shard transactions run exactly like unsharded ones,
// and cross-shard transactions commit atomically through presumed-abort
// two-phase commit (the participant side lives in internal/core; this
// package is the coordinator).
//
// The topology is deliberately static (the paper's HiEngine is a
// single-node engine; sharding here is the deployment layer above it): a
// versioned shard-id -> address table, persisted in each node's manifest
// and served to clients over OpShardMap for self-bootstrap. There is no
// rebalancing; changing the map is a redeploy.
//
// Commit protocol. A distributed transaction's global id (gtid) names a
// home shard -- the first shard the transaction wrote on. Phase one
// prepares every participant in parallel (each logs its whole write set in
// one durable OpPrepare record and keeps the write locks). Phase two
// writes the commit decision at the home shard first; that decision
// record's durability IS the commit point -- only after it is the client
// acknowledged, and only then are the remaining participants told. Under
// presumed abort this is crash-safe in every window: a coordinator that
// dies before the home decision leaves participants in-doubt, and since
// the home has no durable decision, no client was acknowledged and
// recovery aborts everywhere; a coordinator that dies after it leaves the
// home committed, and recovery reads the home's status and completes the
// commit fan-out.
package shard

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hiengine/internal/chaos"
	"hiengine/internal/wire"
)

// Coordinator-side chaos injection sites: the two crash windows of phase
// two. Together with the participant sites (core.prepare.log,
// core.decide.log) and the server ack site (server.2pc.ack) they cover
// every arrow of the 2PC diagram.
const (
	// SiteCoordDecide fires after all participants voted yes, before the
	// home-shard decision is written: a crash here leaves every
	// participant in-doubt with no commit point -- recovery must abort.
	SiteCoordDecide = "shard.coord.decide"
	// SiteCoordFanout fires after the home decision is durable, before
	// the remaining participants are told: a crash here leaves the
	// transaction committed with stragglers in-doubt -- recovery must
	// complete the commit.
	SiteCoordFanout = "shard.coord.fanout"
)

func init() {
	chaos.RegisterSite(SiteCoordDecide, "crash the coordinator after the votes, before the commit point")
	chaos.RegisterSite(SiteCoordFanout, "crash the coordinator after the commit point, before the fan-out")
}

// ErrNoCommitPoint: the home shard of a cross-shard transaction voted
// read-only (its writes matched nothing), so no durable decision record is
// possible there and presumed abort forces the whole transaction down.
// Retrying re-routes with a fresh home and normally succeeds.
var ErrNoCommitPoint = errors.New("shard: home shard has no writes to anchor the commit decision")

// Map is the cluster topology: shard id -> node address, with the owning
// hash function. It wraps the wire form so the same bytes serve the
// manifest record, the OpShardMap body, and the client bootstrap.
type Map struct {
	wire.ShardMap
}

// NewMap builds a version-stamped map over addrs (index = shard id).
func NewMap(version uint64, addrs []string) (*Map, error) {
	if len(addrs) == 0 {
		return nil, errors.New("shard: empty address list")
	}
	return &Map{wire.ShardMap{Version: version, Addrs: addrs}}, nil
}

// DecodeMap parses a map from its wire/manifest encoding.
func DecodeMap(b []byte) (*Map, error) {
	m, err := wire.DecodeShardMap(b)
	if err != nil {
		return nil, err
	}
	return &Map{*m}, nil
}

// Encode renders the map in its wire/manifest form.
func (m *Map) Encode() []byte { return wire.EncodeShardMap(&m.ShardMap) }

// N is the shard count.
func (m *Map) N() int { return len(m.Addrs) }

// Addr returns the node serving shard id.
func (m *Map) Addr(id uint32) string { return m.Addrs[id] }

// shardOf routes a key's byte form: FNV-1a over the bytes, mod the shard
// count. The hash is part of the persisted contract -- every client and
// every node must place a key identically, forever.
func (m *Map) shardOf(key []byte) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return uint32(h % uint64(len(m.Addrs)))
}

// ShardOfInt routes an integer primary key (8-byte big-endian form).
func (m *Map) ShardOfInt(k int64) uint32 {
	var b [8]byte
	u := uint64(k)
	for i := 7; i >= 0; i-- {
		b[i] = byte(u)
		u >>= 8
	}
	return m.shardOf(b[:])
}

// NewGTID builds a global transaction id naming its home shard (the commit
// point), the coordinator's identity seed, and a per-coordinator sequence
// number: "h<home>.<seed>.<seq>". The home is recoverable from the string
// alone -- a resolver holding only the gtid knows whom to ask for the
// authoritative outcome.
func NewGTID(home uint32, seed, seq uint64) string {
	return fmt.Sprintf("h%d.%x.%d", home, seed, seq)
}

// HomeShard extracts the home shard id from a gtid.
func HomeShard(gtid string) (uint32, error) {
	if !strings.HasPrefix(gtid, "h") {
		return 0, fmt.Errorf("shard: malformed gtid %q", gtid)
	}
	dot := strings.IndexByte(gtid, '.')
	if dot < 2 {
		return 0, fmt.Errorf("shard: malformed gtid %q", gtid)
	}
	id, err := strconv.ParseUint(gtid[1:dot], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("shard: malformed gtid %q: %v", gtid, err)
	}
	return uint32(id), nil
}
