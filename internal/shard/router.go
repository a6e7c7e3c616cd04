package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/wire"
)

// ErrTxnDone: the distributed transaction already committed or rolled back.
var ErrTxnDone = errors.New("shard: transaction finished")

// Router is the topology-aware client: one pooled internal/client per
// shard, lazily dialed. Single-shard traffic goes straight through the
// owning shard's client -- same retry, same failover, same error identity
// as an unsharded deployment; only cross-shard transactions pay for
// coordination.
type Router struct {
	opts client.Options // template; Addr is overridden per shard
	seed uint64         // coordinator identity, stamped into gtids
	seq  atomic.Uint64  // per-coordinator gtid sequence
	ch   *chaos.Engine  // coordinator-side fault injection (nil = inert)

	// Distributed tracing (see trace.go): while tracing is on, every
	// transaction shares one trace id across its shards and the stitched
	// tree is stored in lastDist and published to traceSink.
	tracing   atomic.Bool
	distSeq   atomic.Uint64 // per-coordinator distributed trace ids
	traceSink atomic.Pointer[obs.Tracer]
	lastDist  atomic.Pointer[DistTraceTree]

	mu      sync.Mutex
	m       *Map
	clients map[uint32]*client.Client
	closed  bool
}

// NewRouter builds a router over a known map. opts is the per-shard client
// template (Addr is ignored); ch injects coordinator-side faults (nil ok).
func NewRouter(m *Map, opts client.Options, ch *chaos.Engine) *Router {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &Router{opts: opts, seed: opts.Seed, ch: ch,
		m: m, clients: make(map[uint32]*client.Client)}
}

// Map returns the current topology.
func (r *Router) Map() *Map {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m
}

// Close closes every per-shard client.
func (r *Router) Close() {
	r.mu.Lock()
	clients := r.clients
	r.clients = make(map[uint32]*client.Client)
	r.closed = true
	r.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// Client returns (dialing lazily) the pooled client for shard id.
func (r *Router) Client(id uint32) (*client.Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, client.ErrClientClosed
	}
	if c, ok := r.clients[id]; ok {
		return c, nil
	}
	if int(id) >= len(r.m.Addrs) {
		return nil, fmt.Errorf("shard: no shard %d in map version %d", id, r.m.Version)
	}
	o := r.opts
	o.Addr = r.m.Addr(id)
	o.Seed = r.seed + uint64(id) + 1
	c, err := client.New(o)
	if err != nil {
		return nil, err
	}
	r.clients[id] = c
	return c, nil
}

// clientForKey returns the client owning an integer primary key.
func (r *Router) clientForKey(key int64) (*client.Client, error) {
	return r.Client(r.Map().ShardOfInt(key))
}

// Exec runs one autocommit statement on the shard owning key. This is the
// single-shard fast path: it delegates to that shard's client.Exec
// unwrapped, so retry/backoff, replica routing, failover, and error
// identity are exactly those of an unsharded client.
func (r *Router) Exec(key int64, sql string, args ...core.Value) (*wire.Result, error) {
	c, err := r.clientForKey(key)
	if err != nil {
		return nil, err
	}
	dt := r.distTrace()
	res, err := c.ExecTraced(dt, sql, args...)
	r.publishDist(dt, 0, 0, 0)
	return res, err
}

// Query opens a streaming SELECT on the shard owning key. Like Exec, this
// is the single-shard fast path: it delegates to that shard's client.Query
// unwrapped, so the cursor protocol, its retry behavior, and error
// identity are exactly those of an unsharded client. Cross-shard scans are
// the caller's concern (issue one Query per shard and merge).
func (r *Router) Query(key int64, sql string, args ...core.Value) (*client.Rows, error) {
	c, err := r.clientForKey(key)
	if err != nil {
		return nil, err
	}
	dt := r.distTrace()
	rows, err := c.QueryTraced(dt, sql, args...)
	// The open hop is in; page hops keep accumulating on dt but the
	// published tree snapshots the cursor open.
	r.publishDist(dt, 0, 0, 0)
	return rows, err
}

// ExecBatch runs one atomic batch on the shard owning key. Every statement
// in the batch must route to the same shard; the key names it.
func (r *Router) ExecBatch(key int64, stmts []wire.BatchStmt) ([]int, error) {
	c, err := r.clientForKey(key)
	if err != nil {
		return nil, err
	}
	dt := r.distTrace()
	affected, err := c.ExecBatchTraced(dt, stmts)
	r.publishDist(dt, 0, 0, 0)
	return affected, err
}

func (r *Router) chaosCheck(site string) error { return r.ch.Check(site) }

// Txn is one distributed transaction: per-shard sessions opened on first
// touch, committed atomically. A transaction that only ever touches one
// shard commits through that session's ordinary pipelined commit -- 2PC
// costs nothing until a second shard joins.
type Txn struct {
	r       *Router
	dt      *client.DistTrace // shared trace across every participant (nil = untraced)
	parts   map[uint32]*client.Session
	order   []uint32        // first-touch order
	writers map[uint32]bool // shards where a statement affected rows
	gtid    string          // assigned by Commit iff the 2PC path ran
	done    bool
}

// Begin opens a distributed transaction. No network traffic until the
// first statement.
func (r *Router) Begin() *Txn {
	return &Txn{r: r, dt: r.distTrace(),
		parts: make(map[uint32]*client.Session), writers: make(map[uint32]bool)}
}

// Exec runs one statement on the shard owning key, opening that shard's
// session (and its server-side transaction) on first touch.
func (t *Txn) Exec(key int64, sql string, args ...core.Value) (*wire.Result, error) {
	return t.execOn(t.r.Map().ShardOfInt(key), sql, args...)
}

// execOn runs one statement on an explicit shard (for statements whose
// routing key is not the primary key, e.g. secondary-index reads).
func (t *Txn) execOn(id uint32, sql string, args ...core.Value) (*wire.Result, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	s := t.parts[id]
	if s == nil {
		c, err := t.r.Client(id)
		if err != nil {
			return nil, err
		}
		s, err = c.Session()
		if err != nil {
			return nil, err
		}
		if t.dt != nil {
			s.SetDistTrace(t.dt)
		}
		if err := s.Begin(); err != nil {
			s.Close()
			return nil, err
		}
		t.parts[id] = s
		t.order = append(t.order, id)
	}
	res, err := s.Exec(sql, args...)
	if err == nil && res.Affected > 0 {
		t.writers[id] = true
	}
	return res, err
}

// Rollback aborts on every touched shard.
func (t *Txn) Rollback() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	var first error
	for _, id := range t.order {
		s := t.parts[id]
		if s.InTxn() {
			if err := s.Rollback(); err != nil && first == nil {
				first = err
			}
		}
		s.Close()
	}
	// An aborted transaction still yields its (partial) tree.
	t.r.publishDist(t.dt, 0, 0, 0)
	return first
}

// Commit commits the distributed transaction. One touched shard: the
// ordinary pipelined commit, byte-for-byte the unsharded path. Multiple
// shards: presumed-abort 2PC -- parallel prepares, then the decision at
// the home shard (the commit point; a nil return means that record is
// durable), then best-effort fan-out to the rest (recovery completes any
// straggler). An error from the home decision itself means the outcome is
// unknown until a resolver asks the home shard.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	defer func() {
		for _, s := range t.parts {
			s.Close()
		}
	}()
	// Phase durations feed the stitched trace; published even on error so a
	// failed commit still yields its partial tree.
	var prepD, decideD, fanoutD time.Duration
	if t.dt != nil {
		defer func() { t.r.publishDist(t.dt, prepD, decideD, fanoutD) }()
	}
	switch len(t.order) {
	case 0:
		return nil
	case 1:
		return t.parts[t.order[0]].Commit()
	}
	home, ok := t.firstWriter()
	if !ok {
		// Read-only everywhere: each shard commits locally; no ordering
		// constraint between snapshots already read.
		var first error
		for _, id := range t.order {
			if err := t.parts[id].Commit(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	gtid := NewGTID(home, t.r.seed, t.r.seq.Add(1))
	t.gtid = gtid

	// Phase one: every participant prepares in parallel. A vote error has
	// already aborted that participant's transaction server-side.
	votes := make(map[uint32]byte, len(t.order))
	prepT0 := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var voteErr error
	for _, id := range t.order {
		wg.Add(1)
		go func(id uint32, s *client.Session) {
			defer wg.Done()
			v, err := s.TxnPrepare(gtid)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if voteErr == nil {
					voteErr = fmt.Errorf("shard %d: %w", id, err)
				}
				return
			}
			votes[id] = v
		}(id, t.parts[id])
	}
	wg.Wait()
	prepD = time.Since(prepT0)
	if voteErr != nil {
		t.abortPrepared(gtid, votes)
		return voteErr
	}
	if votes[home] != wire.PreparedWrites {
		// The designated home wrote nothing after all (its writes matched
		// zero rows), so there is nowhere to anchor a durable commit
		// decision; presumed abort forces the transaction down.
		t.abortPrepared(gtid, votes)
		return ErrNoCommitPoint
	}
	if err := t.r.chaosCheck(SiteCoordDecide); err != nil {
		// Coordinator death before the commit point: everything prepared
		// stays in-doubt; recovery will presume abort.
		return fmt.Errorf("shard: coordinator failed before decision for %s: %w", gtid, err)
	}

	// Phase two, step one: the home decision is the commit point.
	decideT0 := time.Now()
	if _, err := t.parts[home].TxnDecide(gtid, true); err != nil {
		// The decision may or may not be durable: the outcome is unknown
		// until a resolver asks the home shard for the gtid's status.
		return fmt.Errorf("shard: decision on home shard %d for %s (outcome unknown): %w", home, gtid, err)
	}
	decideD = time.Since(decideT0)
	if err := t.r.chaosCheck(SiteCoordFanout); err != nil {
		// Committed -- the home decision is durable -- but the fan-out is
		// lost; recovery reads the home status and completes it.
		return fmt.Errorf("shard: coordinator failed after commit point for %s: %w", gtid, err)
	}
	// Phase two, step two: best-effort fan-out. Failures here are repaired
	// by recovery; the transaction is already committed.
	fanT0 := time.Now()
	prepared := make([]uint32, 0, len(t.order))
	for _, id := range t.order {
		if votes[id] == wire.PreparedWrites {
			prepared = append(prepared, id)
		}
	}
	fanoutOK := true
	for _, id := range prepared {
		if id != home {
			if _, err := t.parts[id].TxnDecide(gtid, true); err != nil {
				fanoutOK = false
			}
		}
	}
	if fanoutOK {
		// Every participant holding 2PC state durably applied the commit:
		// nobody will ever ask about this gtid again, so prune the
		// bookkeeping (and unpin the backing log segments) everywhere.
		t.forgetAll(gtid, home, prepared)
	}
	fanoutD = time.Since(fanT0)
	return nil
}

// forgetAll prunes a gtid's 2PC bookkeeping on the given participants. Only
// the live coordinator may call it, and only on a DEFINITE outcome: every
// participant that prepared writes has durably acknowledged the decision, so
// no one will ever ask a participant about this gtid again. Deliberately
// home-last, so the home keeps answering TxnStatus until every other
// participant is pruned. A resolver, by contrast, must never forget:
// unknown-outcome clients (and the next sweep) settle against the home's
// retained status, and dropping the home's abort fence would let a late
// prepare reopen a gtid the sweep already presume-aborted elsewhere.
// Best effort -- a lost forget only retains metadata.
func (t *Txn) forgetAll(gtid string, home uint32, ids []uint32) {
	for _, id := range ids {
		if id != home {
			_ = t.parts[id].TxnForget(gtid)
		}
	}
	_ = t.parts[home].TxnForget(gtid)
}

// firstWriter returns the first shard (touch order) where a statement
// affected rows: the home-shard choice.
func (t *Txn) firstWriter() (uint32, bool) {
	for _, id := range t.order {
		if t.writers[id] {
			return id, true
		}
	}
	return 0, false
}

// abortPrepared delivers the abort decision to every participant that
// successfully prepared writes (best effort: unreached participants stay
// in-doubt and recovery presumes abort). If every such participant durably
// acknowledges the abort, the outcome is definite and the bookkeeping is
// pruned. A participant whose prepare ACK was lost is invisible here and
// stays in-doubt; pruning is still safe -- a later sweep finds the home
// without state (TxnUnknown) and presumes abort, which is the outcome.
func (t *Txn) abortPrepared(gtid string, votes map[uint32]byte) {
	home, err := HomeShard(gtid)
	if err != nil {
		return
	}
	acked := make([]uint32, 0, len(votes))
	allAcked := true
	for id, v := range votes {
		if v != wire.PreparedWrites {
			continue
		}
		if _, derr := t.parts[id].TxnDecide(gtid, false); derr != nil {
			allAcked = false
			continue
		}
		acked = append(acked, id)
	}
	if allAcked && len(acked) > 0 {
		t.forgetAll(gtid, home, acked)
	}
}

// RecoveryReport summarizes one resolver pass.
type RecoveryReport struct {
	InDoubt   int // distinct in-doubt gtids found across the cluster
	Committed int // resolved forward (home had a durable commit decision)
	Aborted   int // resolved by presumed abort
}

// Recover is the coordinator-recovery protocol: sweep every shard for
// in-doubt transactions (OpTxnRecover), ask each gtid's home shard for the
// authoritative outcome (OpTxnStatus), and deliver it (OpTxnDecide).
// Presumed abort supplies the default: unless the home shard shows a
// durable commit decision, the transaction aborts -- which is safe exactly
// because the commit protocol acknowledges no client before that decision
// is durable. Idempotent and safe to re-run; a conflicting-decision error
// (the status changed between read and delivery) retries with the fresh
// status.
func (r *Router) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	m := r.Map()
	indoubt := make(map[string][]uint32)
	for id := uint32(0); int(id) < m.N(); id++ {
		s, err := r.session(id)
		if err != nil {
			return rep, fmt.Errorf("shard %d recover sweep: %w", id, err)
		}
		gtids, err := s.TxnRecover()
		s.Close()
		if err != nil {
			return rep, fmt.Errorf("shard %d recover sweep: %w", id, err)
		}
		for _, g := range gtids {
			indoubt[g] = append(indoubt[g], id)
		}
	}
	rep.InDoubt = len(indoubt)
	for gtid, shards := range indoubt {
		home, err := HomeShard(gtid)
		if err != nil {
			return rep, err
		}
		if err := r.resolveOne(gtid, home, shards, &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// resolveOne drives one gtid to resolution, re-reading the home status on a
// decision failure (a concurrent decider may have gotten there first with
// the opposite verdict).
func (r *Router) resolveOne(gtid string, home uint32, shards []uint32, rep *RecoveryReport) error {
	for attempt := 0; ; attempt++ {
		s, err := r.session(home)
		if err != nil {
			return fmt.Errorf("status of %s on home shard %d: %w", gtid, home, err)
		}
		st, _, err := s.TxnStatus(gtid)
		s.Close()
		if err != nil {
			return fmt.Errorf("status of %s on home shard %d: %w", gtid, home, err)
		}
		commit := st == wire.TxnCommitted
		// Deliver the decision to the HOME shard first, whether or not the
		// home reported in-doubt state. For a presumed abort this is the
		// FENCE that makes the sweep safe against a still-live coordinator:
		// the home durably records a decision-only abort entry, so a late
		// prepare (duplicate gtid) or a late commit decision
		// (ErrConflictingDecision) fails at the home instead of committing a
		// transaction whose other participants this sweep is about to abort.
		// Only after the home's record is durable may any other participant
		// learn the outcome -- abort-ascending delivery without the fence is
		// a permanent atomicity split waiting for the race.
		order := make([]uint32, 1, len(shards)+1)
		order[0] = home
		for _, id := range shards {
			if id != home {
				order = append(order, id)
			}
		}
		ok := true
		for _, id := range order {
			ds, err := r.session(id)
			if err != nil {
				return fmt.Errorf("deciding %s on shard %d: %w", gtid, id, err)
			}
			_, derr := ds.TxnDecide(gtid, commit)
			ds.Close()
			if derr != nil {
				if attempt < 2 {
					ok = false
					break // re-read the status and retry
				}
				return fmt.Errorf("deciding %s on shard %d: %w", gtid, id, derr)
			}
		}
		if ok {
			if commit {
				rep.Committed++
			} else {
				rep.Aborted++
			}
			return nil
		}
	}
}

// session leases a session on shard id.
func (r *Router) session(id uint32) (*client.Session, error) {
	c, err := r.Client(id)
	if err != nil {
		return nil, err
	}
	return c.Session()
}
