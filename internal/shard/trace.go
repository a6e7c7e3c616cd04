// Coordinator-side distributed tracing: the Router stitches the per-hop
// stage blocks collected by a shared client.DistTrace into one tree per
// distributed transaction — coordinator wall time decomposed into the 2PC
// phases (parallel prepare, decide-point durability at the home shard,
// best-effort fan-out), each hop tagged (trace id, hop, shard, opcode)
// with the participant's own stage timings. The last assembled tree is the
// router's LastDistTrace.
package shard

import (
	"time"

	"hiengine/internal/client"
	"hiengine/internal/wire"
)

// HopTrace is one participant hop of a stitched distributed trace.
type HopTrace struct {
	// Hop is the span id of the participant unit's first request.
	Hop uint32
	// Shard is the answering node's shard id (valid when HasShard).
	Shard    uint32
	HasShard bool
	// Op is the unit's terminal opcode (OpTxnPrepare, OpTxnDecide, ...).
	Op wire.Op
	// Start is the terminal request's send offset from the trace start.
	Start time.Duration
	// RTT is the coordinator-observed terminal round trip.
	RTT time.Duration
	// Info is the participant's stage-timing block.
	Info *wire.TraceInfo
}

// DistTraceTree is one distributed transaction stitched into a tree:
// coordinator wall time, its 2PC phase decomposition, and every
// participant hop with its own stage timings.
type DistTraceTree struct {
	TraceID uint64
	Start   time.Time
	Total   time.Duration
	// Prepare/Decide/Fanout decompose a cross-shard commit's wall time:
	// all zero for single-shard (or non-commit) traces.
	Prepare time.Duration
	Decide  time.Duration
	Fanout  time.Duration
	// Shards counts the distinct shards that reported hops.
	Shards int
	Hops   []HopTrace
}

// Trace turns coordinator-side distributed tracing on or off: while on,
// every transaction (and traced fast-path call) shares one trace id across
// its shards and the router stitches the returned stage blocks into a
// DistTraceTree (see LastDistTrace).
func (r *Router) Trace(on bool) { r.tracing.Store(on) }

// LastDistTrace returns the most recently assembled tree (nil before the
// first traced transaction completes).
func (r *Router) LastDistTrace() *DistTraceTree { return r.lastDist.Load() }

// distTrace allocates a fresh distributed trace when tracing is on. The
// id is router-owned: per-shard client sequences would collide across the
// coordinator's clients.
func (r *Router) distTrace() *client.DistTrace {
	if !r.tracing.Load() {
		return nil
	}
	return client.NewDistTrace(r.ident<<32 + r.distSeq.Add(1))
}

// publishDist stitches dt's collected hops into a tree and stores it as the
// router's last trace. Nil-safe on dt.
func (r *Router) publishDist(dt *client.DistTrace, prepare, decide, fanout time.Duration) {
	if dt == nil {
		return
	}
	tree := &DistTraceTree{
		TraceID: dt.ID(),
		Start:   dt.Start(),
		Total:   dt.Since(),
		Prepare: prepare,
		Decide:  decide,
		Fanout:  fanout,
	}
	shards := make(map[uint32]bool)
	for _, h := range dt.Hops() {
		ht := HopTrace{Hop: h.Hop, Op: h.Op, Start: h.Start, RTT: h.RTT, Info: h.Info}
		if h.Info != nil && h.Info.HasShard {
			ht.Shard, ht.HasShard = h.Info.Shard, true
			shards[h.Info.Shard] = true
		}
		tree.Hops = append(tree.Hops, ht)
	}
	tree.Shards = len(shards)
	r.lastDist.Store(tree)
}
