// Distributed traces: the client side of cross-process trace stitching.
//
// A coordinator (shard.Router) that fans one transaction out to several
// shards shares a single DistTrace across every participant session. Each
// request the transaction sends carries the shared 64-bit trace id plus a
// fresh hop id from the trace's counter, so every participant's stage
// timings come back tagged (trace id, hop, shard, opcode) and the
// coordinator can stitch them into one tree: which shard's prepare was
// slow, how long the decide-point durability took, what the fan-out cost.
package client

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/wire"
)

// DistHop is one participant's completed traced unit within a distributed
// trace: the terminal response's stage block plus the coordinator's
// client-side view of the terminal round trip.
type DistHop struct {
	// Hop is the span id of the unit's first request (the participant
	// echoes it on the terminal response).
	Hop uint32
	// Op is the terminal request's opcode (OpTxnPrepare, OpTxnDecide, ...).
	Op wire.Op
	// Start is the terminal request's send offset from the trace start.
	Start time.Duration
	// RTT is the coordinator-observed round trip of the terminal request.
	RTT time.Duration
	// Info is the participant's stage-timing block, tagged with its shard.
	Info *wire.TraceInfo
}

// DistTrace is one distributed transaction's shared trace: a trace id, a
// hop-id allocator, and the hops collected so far. Safe for concurrent use
// by the parallel sessions of one distributed transaction.
type DistTrace struct {
	id  uint64
	t0  time.Time
	hop atomic.Uint32

	mu   sync.Mutex
	hops []DistHop
}

// NewDistTrace starts a distributed trace under the given id. The caller
// owns id allocation (it must be unique across the coordinator's clients;
// per-client sequences would collide).
func NewDistTrace(id uint64) *DistTrace {
	return &DistTrace{id: id, t0: time.Now()}
}

// ID returns the shared trace id.
func (d *DistTrace) ID() uint64 { return d.id }

// Start returns the trace's start time.
func (d *DistTrace) Start() time.Time { return d.t0 }

// Since returns the elapsed time since the trace started.
func (d *DistTrace) Since() time.Duration { return time.Since(d.t0) }

// nextHop allocates the next hop (span) id; hop ids start at 1 so an
// untagged frame's 0 is distinguishable.
func (d *DistTrace) nextHop() uint32 { return d.hop.Add(1) }

// record collects one completed hop (a participant's terminal traced
// response).
func (d *DistTrace) record(op wire.Op, start, rtt time.Duration, ti *wire.TraceInfo) {
	d.mu.Lock()
	d.hops = append(d.hops, DistHop{Hop: ti.Hop, Op: op, Start: start, RTT: rtt, Info: ti})
	d.mu.Unlock()
}

// Hops returns a copy of the collected hops, ordered by hop id.
func (d *DistTrace) Hops() []DistHop {
	d.mu.Lock()
	out := make([]DistHop, len(d.hops))
	copy(out, d.hops)
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Hop < out[j].Hop })
	return out
}

// SetDistTrace attaches (or, with nil, detaches) a distributed trace to
// the session: while attached, every request is traced under the shared
// trace id with a fresh hop id, and each completed traced unit's stage
// block is collected into the trace. Takes precedence over Trace(on).
func (s *Session) SetDistTrace(dt *DistTrace) { s.dist = dt }
