// Package server is HiEngine's network service layer: a TCP server speaking
// the internal/wire protocol in front of a sqlfront.Frontend, turning the
// in-process engine into the cloud service of the paper's Figure 3 (one SQL
// frontend, many remote application connections).
//
// Architecture:
//
//   - One connection is one session. Requests on a connection execute
//     serially (SQL sessions are stateful: an open transaction binds
//     statements together), but responses may return out of order: a
//     commit answers only when its log records are durable, via the
//     engine's pipelined-commit path (sqlfront.Session.CommitAsync), while
//     the session keeps executing later statements. Many connections'
//     commits therefore batch into the WAL group commit -- the regime the
//     per-worker log buffers of Section 4.2 are built for.
//
//   - Statements prepare once, execute many: OpPrepare compiles a SQL text
//     through the frontend plan cache and issues a connection-scoped
//     statement id; OpExecStmt binds an argument row straight into the
//     compiled plan (the wire form of Section 3.3's one-time full-stack
//     code generation). Unprepared OpExec traffic shares the same plan
//     cache keyed by SQL text, so it too stops re-parsing after first
//     sight. Statement tables are bounded (MaxStmts) and die with the
//     connection.
//
//   - Silence is bounded: IdleTimeout reaps connections that hold a
//     MaxConns seat without sending anything; ReadTimeout bounds a frame's
//     arrival once started (slowloris) and all waiting while a transaction
//     pins a leased worker slot. Timeouts fail the connection, never the
//     server, and release every resource the connection held.
//
//   - Admission control is typed backpressure, never unbounded queueing:
//     connections beyond MaxConns are greeted with a CodeBusy frame and
//     closed; requests beyond MaxInFlight get CodeBusy responses; worker
//     slots (the engine's bounded session slots) are leased per
//     transaction with a bounded wait, then CodeBusy. Clients see
//     wire.ErrServerBusy, which is retryable; fatal conditions
//     (fail-stopped or closed engine, draining server) carry fatal codes
//     that clients must not retry.
//
//   - Shutdown drains: the listener closes, new requests are refused with
//     CodeClosed (fatal, so clients fail fast instead of retry-storming),
//     and in-flight requests -- including commits waiting on durability
//     callbacks -- complete before connections are torn down.
//
// Framing violations (torn, oversize, garbage frames) fail the offending
// connection, never the server.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// Chaos injection sites owned by this package. Faults here are transient
// (chaos.Fault / chaos.Delay): they degrade one connection, not the
// process, so client retry logic can be exercised against them.
const (
	// SiteAccept fires per accepted connection: a Fault rejects it
	// (closed before the handshake), a Delay slows the accept loop.
	SiteAccept = "server.accept"
	// SiteRead fires per received request frame: a Fault fails the
	// connection as if the read had torn, a Delay models a congested
	// inbound link.
	SiteRead = "server.conn.read"
	// SiteWrite fires per response write: a Fault drops the connection
	// mid-response (a partial frame reaches the client), a Delay models a
	// congested outbound link.
	SiteWrite = "server.conn.write"
	// Site2PCAck fires after a prepare or decision record is durable but
	// before its acknowledgement is written: the canonical 2PC in-doubt
	// window. Any injected error (fault or crash) drops the connection
	// without responding, so the coordinator sees a dead peer while the
	// participant's state is already durable.
	Site2PCAck = "server.2pc.ack"
)

func init() {
	chaos.RegisterSite(SiteAccept, "reject (fault) or slow (delay) an accepted connection")
	chaos.RegisterSite(SiteRead, "fail the connection (fault) or slow (delay) a request read")
	chaos.RegisterSite(SiteWrite, "drop the connection mid-response (fault) or slow (delay) a response write")
	chaos.RegisterSite(Site2PCAck, "lose a durable prepare/decision acknowledgement (the in-doubt window)")
}

// ErrServerBusy is the admission-control sentinel (alias of the wire-level
// sentinel so errors.Is matches on either side of the boundary).
var ErrServerBusy = wire.ErrServerBusy

// Config configures a Server.
type Config struct {
	// Frontend is the SQL layer served to remote sessions. Required.
	Frontend *sqlfront.Frontend
	// WorkerSlots is the engine's session-slot count: at most this many
	// transactions run concurrently, and a transaction leases its slot
	// for its whole lifetime. Required > 0 (use Engine.Workers()).
	WorkerSlots int
	// MaxConns bounds concurrent connections (default 256). Excess
	// connections receive a CodeBusy greeting frame and are closed.
	MaxConns int
	// MaxInFlight bounds requests admitted but not yet answered,
	// including commits awaiting durability (default 4096). Excess
	// requests are answered CodeBusy immediately.
	MaxInFlight int
	// SlotWait bounds how long a transaction waits for a free worker
	// slot before CodeBusy (default 250ms). This is the only bounded
	// queue in the admission path.
	SlotWait time.Duration
	// ReadTimeout bounds a request frame's arrival once its first bytes
	// are on the wire, and bounds inter-statement idle time while a
	// transaction is open (default 30s). A peer that stalls mid-frame
	// (slowloris) or stalls holding a transaction -- and with it a leased
	// worker slot -- fails its own connection; the slot and the MaxConns
	// seat are released, the server is unaffected.
	ReadTimeout time.Duration
	// IdleTimeout reaps connections with no open transaction that send
	// nothing at all (default 5m): abandoned application connections
	// release their MaxConns seat instead of pinning it forever.
	IdleTimeout time.Duration
	// MaxStmts bounds each connection's prepared-statement table
	// (default 256). Prepare beyond the bound is CodeBadRequest.
	MaxStmts int
	// MaxCursors bounds each connection's open-cursor table (default 4).
	// Every cursor pins an MVCC snapshot and leases a worker slot for its
	// lifetime, so the bound is deliberately small; OpScanOpen beyond it is
	// CodeBadRequest.
	MaxCursors int
	// WriteTimeout bounds each response write (default 10s).
	WriteTimeout time.Duration
	// DrainTimeout bounds Close()'s wait for in-flight requests
	// (default 5s).
	DrainTimeout time.Duration
	// Stats, when set, supplies the body of OpStats responses (engine
	// counters, obs snapshots); the server appends its own obs snapshot.
	Stats func() string
	// Obs is the metrics registry (nil = no recording).
	Obs *obs.Registry
	// Tracer, when set, attributes request time to pipeline stages
	// (internal/obs): client-flagged requests are always traced; otherwise
	// the tracer's sampling and slow-threshold policy applies. nil = off,
	// zero overhead.
	Tracer *obs.Tracer
	// Chaos is the fault-injection engine shared with the deployment
	// (nil = inert).
	Chaos *chaos.Engine
	// Replica, when set, marks this server a read-only replica: the
	// greeting advertises the replica role and the primary's address,
	// OpExecAt honors the read-your-writes token against the replica's
	// applied-CSN watermark, and writes fail with CodeReadOnly.
	Replica *ReplicaConfig
	// ReplSource, when set, serves the log-shipping opcodes (OpReplHello/
	// OpReplList/OpReplFetch) so replica processes can mirror this server's
	// PLogs. Set it on primaries.
	ReplSource ReplicationSource
	// Epoch reports the node's current primary epoch, stamped into the
	// greeting and every repl response (nil = 0: no epoch claim, the
	// pre-epoch protocol).
	Epoch func() uint64
	// ObserveEpoch folds a primary epoch presented by a remote node
	// (repl hello/fetch requests) into the node's fencing state and
	// reports whether this node is now fenced -- demoted by a newer
	// lineage. A fenced node refuses repl fetches with CodeStaleEpoch
	// (writes already fail inside the engine). nil = never fenced.
	ObserveEpoch func(epoch uint64) bool
	// ShardInfo, when set, serves OpShardMap: the cluster's shard topology
	// for client self-bootstrap. A request asserting a shard id other than
	// the map's SelfID is answered CodeWrongShard -- the router's stale-map
	// detector. nil (or a nil map) = sharding not enabled.
	ShardInfo func() *wire.ShardMap
	// TwoPC, when set, serves the coordinator-facing 2PC opcodes
	// (OpTxnDecide/OpTxnStatus/OpTxnRecover). OpTxnPrepare needs only the
	// frontend (the session's open transaction prepares through it).
	TwoPC *TwoPCConfig
}

// TwoPCConfig wires the server's 2PC participant opcodes to the engine.
type TwoPCConfig struct {
	// Resolve delivers a coordinator decision for a prepared gtid; done
	// fires once the decision record is durable and applied. Required.
	Resolve func(gtid string, commit bool, done func(csn uint64, err error)) error
	// Status reports a gtid's outcome as a wire.Txn* state byte plus the
	// commit CSN (0 unless committed). Required.
	Status func(gtid string) (state byte, csn uint64)
	// InDoubt lists the gtids prepared here but still undecided. Required.
	InDoubt func() []string
	// Forget prunes a decided gtid's 2PC bookkeeping; done fires once the
	// forget record is durable. Required.
	Forget func(gtid string, done func(err error)) error
}

// ReplicaConfig wires a replica server to its follower state.
type ReplicaConfig struct {
	// PrimaryAddr is advertised in the greeting so clients connected only
	// to the replica can find the write endpoint.
	PrimaryAddr string
	// AppliedCSN reports the replica's durable watermark (for /statusz and
	// token fast-paths).
	AppliedCSN func() uint64
	// WaitCSN blocks until the watermark reaches csn or the timeout
	// expires, reporting whether it did. Required.
	WaitCSN func(csn uint64, timeout time.Duration) bool
	// TokenWait bounds how long OpExecAt waits for the read-your-writes
	// token before answering CodeBusy (default 1s), at which point the
	// client redirects the read to the primary.
	TokenWait time.Duration
}

// ReplicationSource exposes a primary's PLogs to shipping followers.
type ReplicationSource interface {
	// ReplHello identifies the primary: its manifest PLog and current CSN.
	ReplHello() (manifest srss.PLogID, csn uint64)
	// ReplList enumerates the primary's PLogs across both tiers.
	ReplList() []wire.PLogStat
	// ReplFetch reads up to maxBytes from one PLog at offset, returning
	// the PLog's current stat alongside the chunk.
	ReplFetch(id srss.PLogID, offset int64, maxBytes int) (wire.PLogStat, []byte, error)
}

func (c *Config) fill() {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	if c.SlotWait <= 0 {
		c.SlotWait = 250 * time.Millisecond
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = 256
	}
	if c.MaxCursors <= 0 {
		c.MaxCursors = 4
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Replica != nil && c.Replica.TokenWait <= 0 {
		c.Replica.TokenWait = time.Second
	}
}

// Server is one wire-protocol endpoint.
type Server struct {
	cfg Config

	ln       net.Listener
	slots    chan int      // worker-slot lease pool
	inflight chan struct{} // admission semaphore

	// admitMu orders request admission against drain start: handle()'s
	// draining check + reqWG.Add(1) happen under it, and Shutdown sets
	// draining under it before calling reqWG.Wait, so an Add can never
	// start concurrently with Wait at a zero counter (WaitGroup misuse) --
	// once draining is observable, no further request is admitted.
	admitMu sync.Mutex
	reqWG   sync.WaitGroup // admitted requests, until their response is written
	connWG  sync.WaitGroup // connection handler goroutines

	mu    sync.Mutex
	conns map[*conn]struct{}

	draining atomic.Bool
	closed   atomic.Bool

	// Serving role, swappable at runtime by Promote: a replica server
	// carries a ReplicaConfig and no replication source; a primary the
	// reverse. Initialized from cfg; atomic because every greeting and
	// repl request reads them off connection goroutines.
	replica atomic.Pointer[ReplicaConfig]
	replSrc atomic.Pointer[ReplicationSource]

	// cached metrics (nil-safe when cfg.Obs is nil)
	mConns        *obs.Gauge
	mConnsTotal   *obs.Counter
	mConnsReject  *obs.Counter
	mInflight     *obs.Gauge
	mBusy         *obs.Counter
	mProtoErrs    *obs.Counter
	mBytesIn      *obs.Counter
	mBytesOut     *obs.Counter
	mLatency      *obs.Histogram
	mCommitDur    *obs.Histogram
	mReqs         [wire.MaxOp + 1]*obs.Counter   // by opcode
	mOpLat        [wire.MaxOp + 1]*obs.Histogram // per-opcode latency ("server.op.<name>")
	mErrs         [wire.MaxCode + 1]*obs.Counter // by status code
	mSlotWaitBusy *obs.Counter
	mStmtsOpen    *obs.Gauge
	mCursorsOpen  *obs.Gauge
	mReadTimeouts *obs.Counter
	mIdleReaped   *obs.Counter
}

// New builds a server. It does not listen; call Serve with a listener.
func New(cfg Config) (*Server, error) {
	if cfg.Frontend == nil {
		return nil, errors.New("server: Config.Frontend is required")
	}
	if cfg.WorkerSlots <= 0 {
		return nil, errors.New("server: Config.WorkerSlots must be > 0")
	}
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		slots:    make(chan int, cfg.WorkerSlots),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		conns:    make(map[*conn]struct{}),
	}
	for i := 0; i < cfg.WorkerSlots; i++ {
		s.slots <- i
	}
	if cfg.Replica != nil {
		s.replica.Store(cfg.Replica)
	}
	if cfg.ReplSource != nil {
		src := cfg.ReplSource
		s.replSrc.Store(&src)
	}
	r := cfg.Obs
	s.mConns = r.Gauge("server.conns")
	s.mConnsTotal = r.Counter("server.conns_total")
	s.mConnsReject = r.Counter("server.conns_rejected")
	s.mInflight = r.Gauge("server.inflight")
	s.mBusy = r.Counter("server.busy_rejects")
	s.mProtoErrs = r.Counter("server.protocol_errors")
	s.mBytesIn = r.Counter("server.bytes_in")
	s.mBytesOut = r.Counter("server.bytes_out")
	s.mLatency = r.Histogram("server.request_latency_ns")
	s.mCommitDur = r.Histogram("server.commit_durable_ns")
	s.mSlotWaitBusy = r.Counter("server.slot_wait_busy")
	s.mStmtsOpen = r.Gauge("server.stmts_open")
	s.mCursorsOpen = r.Gauge("server.cursors_open")
	s.mReadTimeouts = r.Counter("server.read_timeouts")
	s.mIdleReaped = r.Counter("server.idle_reaped")
	for _, op := range wire.RequestOps() {
		s.mReqs[op] = r.Counter("server.requests." + op.String())
		// One histogram per opcode under the wire golden-table name:
		// its _count series is the request count, its buckets the
		// latency distribution.
		s.mOpLat[op] = r.Histogram("server.op." + op.String())
	}
	for c := wire.CodeOK + 1; c <= wire.MaxCode; c++ {
		s.mErrs[c] = r.Counter("server.errors." + c.String())
	}
	return s, nil
}

// replicaCfg returns the current replica role config (nil on a primary).
func (s *Server) replicaCfg() *ReplicaConfig { return s.replica.Load() }

// replSource returns the current replication source (nil on a replica).
func (s *Server) replSource() ReplicationSource {
	if p := s.replSrc.Load(); p != nil {
		return *p
	}
	return nil
}

// epoch returns the node's current primary epoch (0 when unset).
func (s *Server) epoch() uint64 {
	if s.cfg.Epoch != nil {
		return s.cfg.Epoch()
	}
	return 0
}

// Promote flips the serving role to primary: the replica token config is
// dropped (new greetings advertise the primary role at the engine's
// current epoch; read-your-writes tokens are trivially satisfied by the
// promoted engine) and src, when non-nil, serves the log-shipping opcodes
// so this node's own followers can ship from it. Connections opened before
// the flip keep working -- their next write simply succeeds.
func (s *Server) Promote(src ReplicationSource) {
	s.replica.Store(nil)
	if src != nil {
		s.replSrc.Store(&src)
	}
}

// Draining reports whether the server has begun a graceful shutdown and
// is refusing new requests (readiness probes should fail the node).
func (s *Server) Draining() bool { return s.draining.Load() }

// CursorsOpen returns the number of currently open streaming cursors.
func (s *Server) CursorsOpen() int64 { return s.mCursorsOpen.Load() }

// Addr returns the listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until the server shuts down. It returns
// nil after a graceful shutdown, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.closed.Load() { // Shutdown raced Serve: don't accept
		ln.Close()
		return nil
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() || s.draining.Load() {
				return nil
			}
			return err
		}
		s.mConnsTotal.Inc()
		if err := s.cfg.Chaos.Check(SiteAccept); err != nil {
			// Injected accept rejection (or a latched crash): the
			// connection dies before the handshake; the process lives.
			s.mConnsReject.Inc()
			nc.Close()
			continue
		}
		if !s.admitConn(nc) {
			continue
		}
	}
}

// admitConn registers nc and starts its handler, or refuses it with a
// greeting frame carrying the refusal code.
func (s *Server) admitConn(nc net.Conn) bool {
	refuse := wire.Code(0)
	s.mu.Lock()
	switch {
	case s.draining.Load():
		refuse = wire.CodeClosed
	case len(s.conns) >= s.cfg.MaxConns:
		refuse = wire.CodeBusy
	}
	var c *conn
	if refuse == 0 {
		c = &conn{s: s, nc: nc, br: bufio.NewReader(nc), sess: s.cfg.Frontend.NewSession(0)}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
	}
	s.mu.Unlock()
	if refuse != 0 {
		// Greeting rejection: a response frame with RequestID 0, which
		// matches no request; clients treat it as a connection-level
		// error with the carried code.
		if refuse == wire.CodeBusy {
			s.mBusy.Inc()
		}
		s.mConnsReject.Inc()
		nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		wire.WriteFrame(nc, wire.Frame{Op: wire.OpResponse,
			Payload: wire.AppendResponse(nil, refuse, "connection refused", nil)})
		nc.Close()
		return false
	}
	s.mConns.Add(1)
	go c.serve()
	return true
}

// Shutdown gracefully drains the server: the listener closes, refused
// requests carry CodeClosed, and all admitted requests -- including
// commits waiting for durability -- complete before connections close.
// Returns ctx.Err() if the drain deadline expired first.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.admitMu.Lock() // see admitMu: no reqWG.Add once draining is set
	s.draining.Store(true)
	s.admitMu.Unlock()
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}

// Close shuts down with the configured drain timeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// --- connection handling ---------------------------------------------------

// conn is one client connection and its server-side session.
type conn struct {
	s    *Server
	nc   net.Conn
	br   *bufio.Reader
	sess *sqlfront.Session

	// stmts is the connection's prepared-statement table: ids issued by
	// OpPrepare, scoped to (and dying with) the connection. Bounded by
	// Config.MaxStmts.
	stmts   map[uint64]*sqlfront.Stmt
	stmtSeq uint64

	// cursors is the connection's open-cursor table: ids issued by
	// OpScanOpen, scoped to (and dying with) the connection. Bounded by
	// Config.MaxCursors; each entry leases its own worker slot.
	cursors map[uint64]*cursorEntry
	curSeq  uint64

	// Statement scratch, the read loop's, valid for one OpExec or
	// OpExecStmt: args is the row its arguments decode into (a cursor and a
	// batch decode their own, which they keep), rows the sink its result rows
	// are encoded into, over a pooled buffer lent for the statement.
	args core.Row
	rows sqlfront.RowBuf

	// worker-slot lease: held for the lifetime of a transaction
	// (explicit or autocommit); the engine frees its own slot earlier on
	// pipelined commits, but the lease is the server-side bound.
	slot    int
	hasSlot bool

	writeMu sync.Mutex
	dead    bool // write side failed; further responses are dropped

	// Socket deadlines, armed lazily (wire.Deadline): rdl belongs to the
	// read loop, wdl to whoever holds writeMu.
	rdl, wdl wire.Deadline

	// tr is the active request trace. It spans a whole transaction
	// (BEGIN..COMMIT arrive as separate frames) and completes with the
	// terminal response: a deferred answer's durability callback, or any
	// response after which no transaction remains open. Owned by the
	// read-loop goroutine until deferAnswer hands it to the callback.
	tr *obs.Trace
}

// isTimeout reports whether a read failed by deadline rather than by
// peer close or garbage.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// serve is the per-connection read loop. Requests execute serially (the
// session is stateful); responses may be written out of order by
// durability callbacks.
//
// Read deadlines bound a peer's silence: waiting between frames is
// budgeted IdleTimeout (ReadTimeout while a transaction is open, since an
// open transaction pins a leased worker slot), and once a frame's first
// bytes arrive its remainder must land within ReadTimeout -- a peer
// trickling a frame byte-by-byte (slowloris) cannot hold the connection
// open past it. A deadline failure kills only this connection; teardown
// releases the worker slot and the MaxConns seat. Deadlines are armed lazily
// (wire.Deadline): none fires early, each at most a quarter of its budget
// late, and a transaction's frames, all under the one ReadTimeout budget,
// cost a clock read each instead of two timer updates.
func (c *conn) serve() {
	defer c.teardown()
	c.greet()
	fr := wire.NewFrameReader(c.br, true)
	inFrame := false
	var frameT0 time.Time
	fr.OnFrameStart = func() {
		inFrame = true
		frameT0 = time.Now()
		c.rdl.Arm(c.nc.SetReadDeadline, frameT0, c.s.cfg.ReadTimeout)
		// A continuing trace attributes the frame's bytes-on-the-wire time
		// (first byte to full frame), not the idle wait before it.
		c.tr.Begin(obs.StageFrameRead)
	}
	for {
		inFrame = false
		wait := c.s.cfg.IdleTimeout
		if c.sess.InTxn() || len(c.cursors) > 0 {
			// An open transaction or cursor pins a leased worker slot (and,
			// for a cursor, an MVCC snapshot): the peer must keep talking
			// under the tighter budget or lose the connection.
			wait = c.s.cfg.ReadTimeout
		}
		c.rdl.Arm(c.nc.SetReadDeadline, time.Now(), wait)
		f, err := fr.Read()
		if err != nil {
			switch {
			case isTimeout(err):
				if inFrame || c.sess.InTxn() {
					c.s.mReadTimeouts.Inc()
					c.respond(0, nil, wire.CodeClosed, "read timeout", nil)
				} else {
					c.s.mIdleReaped.Inc()
					c.respond(0, nil, wire.CodeClosed, "connection idle timeout", nil)
				}
			case errors.Is(err, wire.ErrProtocol):
				// Torn/oversize/garbage frame: fail the connection with
				// a best-effort protocol-violation notice.
				c.s.mProtoErrs.Inc()
				c.respond(0, nil, wire.CodeBadRequest, err.Error(), nil)
			}
			return
		}
		if err := c.s.cfg.Chaos.Check(SiteRead); err != nil {
			return // injected read failure: the connection is gone
		}
		if c.tr != nil {
			c.tr.End(obs.StageFrameRead)
		} else if tc := c.s.cfg.Tracer; tc != nil {
			// First frame of a traced unit: the trace starts only once the
			// frame (and with it any client trace id) has been read, so the
			// read time is back-dated as a span at offset zero.
			if tr := tc.Start(f.TraceID, f.Traced); tr != nil {
				c.tr = tr
				c.sess.SetTrace(tr)
				tr.AddSpan(obs.StageFrameRead, 0, int64(time.Since(frameT0)))
				// Tag the trace with its distributed identity: the hop id
				// the coordinator stamped on the frame, and this node's
				// shard id, so the stitched tree can place the timings.
				tr.SetHop(f.Hop)
				if si := c.s.cfg.ShardInfo; si != nil {
					if sm := si(); sm != nil {
						tr.SetShard(sm.SelfID)
					}
				}
			}
		}
		// The terminal opcode of the traced unit names the whole trace
		// (the last tag before Finish wins).
		c.tr.SetOp(f.Op.String())
		c.s.mBytesIn.Add(int64(fr.WireLen()))
		if !c.handle(f) {
			return
		}
	}
}

// greet sends the server greeting: an unsolicited RequestID-0 CodeOK
// response carrying the server's role (primary or replica) and, on a
// replica, the primary's address. Clients that predate the greeting ignore
// unknown-ID OK frames, so it is backward-compatible.
func (c *conn) greet() {
	role, primary := wire.RolePrimary, ""
	if rc := c.s.replicaCfg(); rc != nil {
		role, primary = wire.RoleReplica, rc.PrimaryAddr
	}
	c.respond(0, nil, wire.CodeOK, "", wire.EncodeGreeting(role, primary, c.s.epoch()))
}

// teardown runs when the read loop exits: the open transaction (if any)
// aborts, the worker-slot lease releases, and the connection unregisters.
// Pending durability callbacks may still fire afterwards; respond tolerates
// the dead connection.
func (c *conn) teardown() {
	// A traced unit that never reached a terminal response (the connection
	// died mid-transaction) is dropped without publishing.
	c.tr.Discard()
	c.tr = nil
	if c.sess.InTxn() {
		c.sess.Rollback()
	}
	c.releaseSlot()
	for id, ce := range c.cursors {
		// Idle-cursor reaping too: the read-loop timeout fails the
		// connection, and every cursor's snapshot and slot go with it.
		c.closeCursor(id, ce)
	}
	c.s.mStmtsOpen.Add(-int64(len(c.stmts)))
	c.stmts = nil
	c.nc.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	c.s.mConns.Add(-1)
	c.s.connWG.Done()
}

// acquireSlot leases a worker slot for a new transaction, waiting at most
// SlotWait. The lease is already held when a transaction is open.
func (c *conn) acquireSlot() error {
	if c.hasSlot {
		return nil
	}
	s, err := c.s.leaseSlot(c.tr)
	if err != nil {
		return err
	}
	c.slot, c.hasSlot = s, true
	c.sess.SetWorker(s)
	return nil
}

// releaseSlot returns the lease unless a transaction still holds it.
func (c *conn) releaseSlot() {
	if c.hasSlot && !c.sess.InTxn() {
		c.s.slots <- c.slot
		c.hasSlot = false
	}
}

// handle admits one request and runs its opcode's handler. Returns false
// when the connection must close. The in-flight token and reqWG entry taken
// here are released exactly once, after the response is written (possibly
// from a durability callback): request.release.
func (c *conn) handle(f wire.Frame) bool {
	s := c.s
	s.mReqs[f.Op].Inc()
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		c.respond(f.RequestID, c.takeTerminalTrace(), wire.CodeClosed, "server draining", nil)
		return true
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		s.admitMu.Unlock()
		s.mBusy.Inc()
		c.respond(f.RequestID, c.takeTerminalTrace(), wire.CodeBusy, "server at max in-flight requests", nil)
		return true
	}
	s.reqWG.Add(1)
	s.admitMu.Unlock()
	s.mInflight.Add(1)
	// The frame reader admits exactly the opcodes wire.RequestOps lists, and
	// each of them has a handler (TestEveryRequestOpcodeIsHandled).
	return handlers[f.Op](c, request{c: c, id: f.RequestID, op: f.Op, start: time.Now()}, f.Payload)
}

// takeTerminalTrace detaches and returns the active trace if the response
// about to be written terminates the traced unit (no transaction remains
// open to extend it); otherwise it returns nil and the trace stays attached
// for the transaction's later frames.
func (c *conn) takeTerminalTrace() *obs.Trace {
	tr := c.tr
	if tr == nil || c.sess.InTxn() {
		return nil
	}
	c.tr = nil
	c.sess.SetTrace(nil)
	return tr
}

// respondErr classifies err onto its stable wire code and responds,
// completing tr (if any) with the response.
func (c *conn) respondErr(reqID uint64, tr *obs.Trace, err error) {
	code := wire.Classify(err)
	c.s.mErrs[code].Inc()
	c.respond(reqID, tr, code, err.Error(), nil)
}

// respond writes one response frame. Any goroutine may call it (the read
// loop or a durability callback); writeMu serializes frame writes so
// out-of-order responses interleave at frame granularity, never byte
// granularity. Write failures (or an injected mid-response drop) kill the
// connection's write side; later responses are dropped silently.
//
// A non-nil tr is completed by the response: the frame carries the
// stage-timing block, the write itself is recorded as the respond stage, and
// the trace finishes (publishing per its sampling/slow policy) after the
// write. The caller must have detached tr from the connection; respond
// consumes it.
func (c *conn) respond(reqID uint64, tr *obs.Trace, code wire.Code, msg string, body []byte) {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	tr.End(obs.StageDurable)
	tr.Begin(obs.StageRespond)
	buf := wire.AppendResponseFrame((*bp)[:0], reqID, tr, code, msg, body)
	if payload := len(buf) - 13; payload > wire.MaxPayload {
		// An oversize response (e.g. a huge scan result) must never reach
		// the wire: the client's ReadFrame would reject the frame as a
		// protocol violation and kill the connection, failing every
		// pipelined request on it. Substitute a clean per-request error.
		c.s.mErrs[wire.CodeBadRequest].Inc()
		buf = wire.AppendResponseFrame(buf[:0], reqID, nil, wire.CodeBadRequest,
			fmt.Sprintf("result too large: %d bytes exceeds frame limit %d", payload, wire.MaxFrame), nil)
	}
	*bp = buf
	c.writeMu.Lock()
	c.write(buf)
	c.writeMu.Unlock()
	tr.End(obs.StageRespond)
	tr.Finish()
}

// write sends one framed response; the caller holds writeMu.
func (c *conn) write(buf []byte) {
	if c.dead {
		return
	}
	if err := c.s.cfg.Chaos.Check(SiteWrite); err != nil {
		if errors.Is(err, chaos.ErrInjected) {
			// Mid-response connection drop: the client sees a torn frame.
			c.nc.Write(buf[:len(buf)/2])
		}
		c.dead = true
		c.nc.Close()
		return
	}
	c.wdl.Arm(c.nc.SetWriteDeadline, time.Now(), c.s.cfg.WriteTimeout)
	if _, err := c.nc.Write(buf); err != nil {
		c.dead = true
		c.nc.Close()
		return
	}
	c.s.mBytesOut.Add(int64(len(buf)))
}
