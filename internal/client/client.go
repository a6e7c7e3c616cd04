// Package client is the connection-pooled HiEngine wire-protocol client.
//
// A Client owns a bounded pool of TCP connections to one server. Each
// server connection is one server-side session, so session-scoped work
// (BEGIN...COMMIT) leases a connection via Session and pins it until the
// session closes. The calling goroutine drives its connection: it writes
// its request and reads the socket itself until its response arrives, with
// the socket deadline as the timeout; no goroutine belongs to a connection.
// Requests are matched by request ID, so pipelined requests (ExecPipe,
// CommitPipe: several in flight before the first response, notably commits
// answered only at durability) complete out of order exactly as the server
// sends them: whoever reads a response meant for another in-flight request
// parks it with that request's Pending.
//
// BEGIN costs no round trip: Session.Begin only notes it, and the first
// statement carries it to the server as a flag (wire.FlagBegin), so errors
// opening the transaction -- an admission refusal, above all -- surface from
// that first statement.
//
// Failure handling mirrors the wire contract:
//
//   - Wire errors rehydrate as *wire.Error, whose Unwrap exposes the
//     originating sentinel: errors.Is(err, engineapi.ErrConflict),
//     errors.Is(err, core.ErrClosed) etc. hold across the wire exactly as
//     in-process.
//   - Retry is limited to the retryable codes (conflict, busy), with
//     seeded-jitter exponential backoff, and only outside transactions
//     (a conflict aborts the server-side transaction; replaying one
//     statement of it would be wrong). Fatal codes -- a closed or
//     fail-stopped engine -- and I/O errors are never retried: a killed
//     server makes clients fail fast, not retry-storm.
//   - A connection that times out, tears a frame, or yields any I/O error
//     is discarded, never returned to the pool.
//
// When ReplicaAddrs is configured the client also handles failover: a
// primary connection failure (or a stale-epoch / read-only refusal)
// triggers primary rediscovery, probing the configured endpoints -- and
// any PrimaryAddr hints their greetings carry -- with jittered
// exponential backoff until a primary at the newest observed epoch
// answers. Writes then resume against the promoted node with no
// reconfiguration; if no primary is reachable within FailoverRetries
// rounds, ErrNoPrimary surfaces.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/core"
	"hiengine/internal/wire"
)

// ErrClientClosed is returned by operations on a closed Client.
var ErrClientClosed = errors.New("client: closed")

// ErrStmtClosed is returned by operations on a closed Stmt.
var ErrStmtClosed = errors.New("client: statement closed")

// ErrNoPrimary is returned when primary rediscovery exhausts its retry
// budget without finding a reachable primary at the newest observed
// epoch. The cluster may still be mid-failover; a later call retries
// rediscovery from scratch.
var ErrNoPrimary = errors.New("client: no reachable primary")

// Options configures a Client.
type Options struct {
	// Addr is the server address (host:port). Required.
	Addr string
	// PoolSize bounds pooled connections = concurrent sessions
	// (default 8).
	PoolSize int
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds each request round trip, and acquiring a
	// session when the pool is exhausted (default 10s).
	RequestTimeout time.Duration
	// MaxRetries bounds retry attempts after a retryable wire error
	// (default 4; 0 disables retry).
	MaxRetries int
	// RetryBase / RetryMax shape the backoff: attempt i sleeps a
	// jittered duration around RetryBase<<i, capped at RetryMax
	// (defaults 2ms / 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed seeds the deterministic backoff jitter (default 1).
	Seed uint64
	// FetchSize is the default rows-per-page hint for streaming queries
	// (Query / Rows), overridable per session with SetFetchSize
	// (default 512). The server additionally bounds every page by bytes.
	FetchSize int
	// ReplicaAddrs lists read-replica endpoints. When non-empty, read-only
	// autocommit statements (SELECT text) issued through Client.Exec are
	// routed round-robin to a replica, carrying the client's last observed
	// commit CSN as a read-your-writes token; a replica that cannot serve
	// the statement (behind the token, unreachable, or refusing writes)
	// falls back to the primary transparently.
	//
	// ReplicaAddrs are also the failover candidates: when the primary
	// becomes unreachable or demotes, rediscovery probes them (and any
	// PrimaryAddr their greetings name) for the new primary.
	ReplicaAddrs []string
	// FailoverRetries bounds primary-rediscovery rounds after a primary
	// failure (default 8; failover runs only when ReplicaAddrs is
	// non-empty). Each round probes every candidate once.
	FailoverRetries int
	// FailoverBase / FailoverMax shape the jittered backoff between
	// rediscovery rounds: round i sleeps around FailoverBase<<i, capped
	// at FailoverMax (defaults 25ms / 1s).
	FailoverBase time.Duration
	FailoverMax  time.Duration
}

func (o *Options) fill() {
	if o.PoolSize <= 0 {
		o.PoolSize = 8
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 2 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FetchSize <= 0 {
		o.FetchSize = 512
	}
	if o.FailoverRetries <= 0 {
		o.FailoverRetries = 8
	}
	if o.FailoverBase <= 0 {
		o.FailoverBase = 25 * time.Millisecond
	}
	if o.FailoverMax <= 0 {
		o.FailoverMax = time.Second
	}
}

// Client is a pooled wire-protocol client for one server.
type Client struct {
	opts     Options
	tokens   chan struct{} // pool capacity
	traceSeq atomic.Uint64 // client-assigned trace ids (nonzero)

	// csn is the highest commit CSN any connection of this client (or of
	// its replica sub-clients -- they share the pointer) has observed: the
	// read-your-writes token presented to replicas.
	csn      *atomic.Uint64
	replicas []*Client     // read-replica sub-clients, sharing csn
	rr       atomic.Uint64 // round-robin cursor over replicas
	greeting atomic.Pointer[Greeting]

	// primary is the current write endpoint, initially Options.Addr and
	// repointed by failover; maxEpoch latches the highest primary epoch
	// any greeting has claimed, so rediscovery never adopts (and probes
	// actively fence) a stale pre-failover primary.
	primary  atomic.Pointer[string]
	maxEpoch atomic.Uint64

	mu     sync.Mutex
	idle   []*wconn
	rng    *chaos.Rand
	closed bool
}

// Greeting is the server's connection greeting: its role, its primary
// epoch (0 from servers that make no epoch claim), and, for a replica,
// where the write endpoint lives.
type Greeting struct {
	Role        byte // wire.RolePrimary or wire.RoleReplica
	PrimaryAddr string
	Epoch       uint64
}

// New builds a client. No connection is dialed until first use.
func New(opts Options) (*Client, error) {
	if opts.Addr == "" {
		return nil, errors.New("client: Options.Addr is required")
	}
	opts.fill()
	c := &Client{
		opts:   opts,
		tokens: make(chan struct{}, opts.PoolSize),
		rng:    chaos.NewRand(opts.Seed, "client.retry"),
		csn:    new(atomic.Uint64),
	}
	addr := opts.Addr
	c.primary.Store(&addr)
	for i := 0; i < opts.PoolSize; i++ {
		c.tokens <- struct{}{}
	}
	for i, ra := range opts.ReplicaAddrs {
		ro := opts
		ro.Addr = ra
		ro.ReplicaAddrs = nil
		ro.Seed = opts.Seed + uint64(i) + 1
		rc, err := New(ro)
		if err != nil {
			return nil, err
		}
		rc.csn = c.csn // one token shared across the fleet
		c.replicas = append(c.replicas, rc)
	}
	return c, nil
}

// Close closes the client and its idle connections. Leased sessions fail
// on their next use.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, w := range idle {
		w.fail(ErrClientClosed)
	}
	for _, rc := range c.replicas {
		rc.Close()
	}
}

// Greeting returns the most recent connection greeting received from the
// server, or nil before the first connection is established.
func (c *Client) Greeting() *Greeting { return c.greeting.Load() }

// LastCSN returns the highest commit CSN this client has observed: the
// read-your-writes token it presents to replicas.
func (c *Client) LastCSN() uint64 { return c.csn.Load() }

// PrimaryAddr returns the address the client currently writes to:
// Options.Addr until failover repoints it at a promoted node.
func (c *Client) PrimaryAddr() string { return *c.primary.Load() }

// raise lifts a monotonic high-water mark to at least v.
func raise(mark *atomic.Uint64, v uint64) {
	for {
		cur := mark.Load()
		if v <= cur || mark.CompareAndSwap(cur, v) {
			return
		}
	}
}

// noteEpoch latches a greeting's epoch claim (0 = no claim).
func (c *Client) noteEpoch(v uint64) { raise(&c.maxEpoch, v) }

// jitter sleeps a jittered exponential backoff for attempt (0-based): a
// duration in [d/2, d] around base<<attempt, capped at max.
func (c *Client) jitter(base, max time.Duration, attempt int) {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Uint64() % uint64(d/2+1))
	c.mu.Unlock()
	time.Sleep(d/2 + j)
}

// retry is the client's one retry loop: fn runs until it succeeds, its
// failure is one the request's retry class does not allow reissuing
// (wire.RetryClass -- in particular any I/O error and any fatal code, so a
// killed server makes clients fail fast, not retry-storm), or MaxRetries
// attempts were spent, with seeded-jitter exponential backoff in between.
func (c *Client) retry(class wire.RetryClass, inTxn bool, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || attempt >= c.opts.MaxRetries || !class.Allows(wire.CodeOf(err), inTxn) {
			return err
		}
		c.jitter(c.opts.RetryBase, c.opts.RetryMax, attempt)
	}
}

// Session leases a pooled connection as a dedicated session. Callers must
// Close it; sessions are not safe for concurrent use.
func (c *Client) Session() (*Session, error) {
	select {
	case <-c.tokens:
	default: // pool exhausted: only now is a timer worth arming
		t := time.NewTimer(c.opts.RequestTimeout)
		defer t.Stop()
		select {
		case <-c.tokens:
		case <-t.C:
			// A *wire.Error carrying CodeBusy, so pool exhaustion is retried
			// with backoff exactly like server-side admission rejection.
			return nil, &wire.Error{Code: wire.CodeBusy,
				Msg: fmt.Sprintf("client: no session available in %v", c.opts.RequestTimeout)}
		}
	}
	w, err := c.conn()
	if err != nil {
		c.tokens <- struct{}{}
		return nil, err
	}
	return &Session{c: c, w: w}, nil
}

// lease is Session for the client's own one-shot calls: it rides out pool
// exhaustion, and the session carries dt (nil = untraced).
func (c *Client) lease(dt *DistTrace) (s *Session, err error) {
	err = c.retry(wire.RetryAlways, false, func() error {
		s, err = c.Session()
		return err
	})
	if err == nil {
		s.dist = dt
	}
	return s, err
}

// withSession leases a pooled session, runs fn on it and returns it to the
// pool: the shape of every Client-level call.
func (c *Client) withSession(dt *DistTrace, fn func(*Session) error) error {
	s, err := c.lease(dt)
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(s)
}

// conn returns an idle pooled connection or dials a fresh one. Nobody reads
// a connection while it sits in the pool, so one the server meanwhile reaped,
// closed or sent a notice on is found out here, by one non-blocking look at
// the socket, and discarded instead of failing its next caller.
func (c *Client) conn() (*wconn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClientClosed
		}
		if len(c.idle) == 0 {
			c.mu.Unlock()
			return c.dial()
		}
		w := c.idle[len(c.idle)-1]
		c.idle = c.idle[:len(c.idle)-1]
		c.mu.Unlock()
		if w.quiet() {
			return w, nil
		}
		w.fail(errors.New("client: connection went stale in the pool"))
	}
}

func (c *Client) dial() (*wconn, error) {
	addr := *c.primary.Load()
	nc, err := net.DialTimeout("tcp", addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return newWconn(c, nc), nil
}

// release returns a session's connection to the pool (healthy, nothing in
// flight) or drops it (failed / mid-transaction / responses still owed).
func (c *Client) release(w *wconn, reusable bool) {
	reusable = reusable && w.settled()
	c.mu.Lock()
	if reusable && !c.closed {
		c.idle = append(c.idle, w)
		w = nil
	}
	c.mu.Unlock()
	if w != nil {
		w.fail(errors.New("client: connection discarded"))
	}
	c.tokens <- struct{}{}
}

// Ping round-trips an empty frame on a pooled connection.
func (c *Client) Ping() error {
	return c.withSession(nil, (*Session).Ping)
}

// Stats fetches the server's stats snapshot text.
func (c *Client) Stats() (text string, err error) {
	err = c.withSession(nil, func(s *Session) error {
		text, err = s.Stats()
		return err
	})
	return text, err
}

// isReadOnlySQL reports whether sql is a statement safe to route to a
// read replica (SELECT text).
func isReadOnlySQL(sql string) bool {
	s := strings.TrimSpace(sql)
	return len(s) >= 6 && strings.EqualFold(s[:6], "SELECT")
}

// Exec runs one autocommit statement on a pooled connection, retrying
// retryable wire errors with backoff. When the client has replicas,
// read-only statements route round-robin to a replica first, presenting the
// client's read-your-writes token, and fall back to the primary if the
// replica cannot serve them (behind the token, unreachable, or read-only
// refusal); and a primary failure that signals failover (connection loss,
// stale epoch, demotion) triggers primary rediscovery followed by one
// replay of the statement. The replay is at-least-once: a write whose
// acknowledgement was lost in the failover may be applied twice (for
// inserts, the replay then surfaces CodeDuplicate).
func (c *Client) Exec(sql string, args ...core.Value) (*wire.Result, error) {
	return c.ExecTraced(nil, sql, args...)
}

// ExecTraced is Exec with every request it sends -- replica attempt, primary
// attempt, replay -- carrying dt and recording its hop there (nil =
// untraced). Tracing is an attribute of the call, never of its routing.
func (c *Client) ExecTraced(dt *DistTrace, sql string, args ...core.Value) (res *wire.Result, err error) {
	if len(c.replicas) > 0 && isReadOnlySQL(sql) {
		rc := c.replicas[int(c.rr.Add(1))%len(c.replicas)]
		if rc.withSession(dt, func(s *Session) error {
			res, err = s.ExecAt(c.csn.Load(), sql, args...)
			return err
		}) == nil {
			return res, nil
		}
	}
	onPrimary := func(s *Session) error {
		res, err = s.Exec(sql, args...)
		return err
	}
	err = c.withSession(dt, onPrimary)
	if err != nil && c.failoverEnabled() && failoverable(err) {
		if err = c.rediscoverPrimary(); err == nil {
			err = c.withSession(dt, onPrimary)
		}
	}
	return res, err
}

// --- failover --------------------------------------------------------------

// failoverEnabled reports whether the client performs primary
// rediscovery: only when it knows other endpoints to probe.
func (c *Client) failoverEnabled() bool {
	return len(c.opts.ReplicaAddrs) > 0 && c.opts.FailoverRetries > 0
}

// failoverable reports whether err signals that the current primary is
// gone or demoted, so rediscovery (not retry-in-place) is the remedy:
// connection-level I/O failures, and the wire codes a losing-side node
// answers with after a failover (wire.Moved). Retryable codes (conflict,
// busy) and statement errors stay with the current primary.
func failoverable(err error) bool {
	if err == nil || errors.Is(err, ErrClientClosed) {
		return false
	}
	var we *wire.Error
	if errors.As(err, &we) {
		return wire.Moved(we.Code)
	}
	return true // dial / read / write / timeout: the connection is gone
}

// rediscoverPrimary probes the candidate endpoints for a primary at the
// newest observed epoch, following PrimaryAddr hints from replica
// greetings, with jittered exponential backoff between rounds. On
// success the client's write endpoint is repointed and pooled
// connections to the old primary are discarded. Exhausting
// FailoverRetries rounds returns ErrNoPrimary.
func (c *Client) rediscoverPrimary() error {
	var lastErr error
	for round := 0; round < c.opts.FailoverRetries; round++ {
		// Candidate queue: current primary (it may have come back), the
		// configured endpoints, plus any greeting hints discovered while
		// probing this round.
		queue := []string{*c.primary.Load(), c.opts.Addr}
		queue = append(queue, c.opts.ReplicaAddrs...)
		if g := c.greeting.Load(); g != nil && g.PrimaryAddr != "" {
			queue = append(queue, g.PrimaryAddr)
		}
		seen := make(map[string]bool)
		var bestAddr string
		var best *Greeting
		for i := 0; i < len(queue); i++ {
			addr := queue[i]
			if addr == "" || seen[addr] {
				continue
			}
			seen[addr] = true
			g, err := c.probe(addr)
			if err != nil {
				lastErr = err
				continue
			}
			c.noteEpoch(g.Epoch)
			if g.PrimaryAddr != "" && !seen[g.PrimaryAddr] {
				queue = append(queue, g.PrimaryAddr)
			}
			if g.Role == wire.RolePrimary && (best == nil || g.Epoch > best.Epoch) {
				bestAddr, best = addr, g
			}
		}
		// Adopt only a primary at the newest epoch any greeting has ever
		// claimed: a not-yet-fenced pre-failover primary presents a lower
		// epoch and is skipped (and was fence-assisted by the probe).
		if best != nil && best.Epoch >= c.maxEpoch.Load() {
			c.adoptPrimary(bestAddr, best)
			return nil
		}
		c.jitter(c.opts.FailoverBase, c.opts.FailoverMax, round)
	}
	if lastErr != nil {
		return fmt.Errorf("%w after %d rounds (last error: %v)",
			ErrNoPrimary, c.opts.FailoverRetries, lastErr)
	}
	return fmt.Errorf("%w after %d rounds", ErrNoPrimary, c.opts.FailoverRetries)
}

// probe dials addr, reads its greeting, and closes the connection. A
// probed node claiming a primary role at an epoch below the client's
// observed maximum is fence-assisted: the probe presents the newer epoch
// over the replication hello before hanging up, demoting the stale
// primary even before the promoted node's own fencer reaches it.
func (c *Client) probe(addr string) (*Greeting, error) {
	nc, err := net.DialTimeout("tcp", addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: probe %s: %w", addr, err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	fr := wire.NewFrameReader(bufio.NewReader(nc), false)
	f, err := fr.Read()
	if err != nil {
		return nil, fmt.Errorf("client: probe %s: %w", addr, err)
	}
	r, err := wire.DecodeResponseFrame(f)
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("client: probe %s: %w", addr, err)
	}
	role, primary, epoch, ok := wire.DecodeGreeting(r.Body)
	if !ok {
		return nil, fmt.Errorf("client: probe %s: malformed greeting", addr)
	}
	if max := c.maxEpoch.Load(); role == wire.RolePrimary && epoch < max {
		buf := wire.AppendFrame(nil, wire.Frame{
			RequestID: 1,
			Op:        wire.OpReplHello,
			Payload:   wire.EncodeReplHelloReq(max),
		})
		if _, err := nc.Write(buf); err == nil {
			_, _ = fr.Read() // best effort: wait for the fence to land
		}
	}
	return &Greeting{Role: role, PrimaryAddr: primary, Epoch: epoch}, nil
}

// adoptPrimary repoints the client's write endpoint and drops pooled
// connections to the old one.
func (c *Client) adoptPrimary(addr string, g *Greeting) {
	c.primary.Store(&addr)
	c.greeting.Store(g)
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, w := range idle {
		w.fail(errors.New("client: primary changed"))
	}
}

// --- session ---------------------------------------------------------------

// Session is one leased server-side session. Every request goes through
// call, which reissues it as its retry class allows: in particular,
// statements inside an open transaction are never retried, autocommit
// statements retry retryable codes.
type Session struct {
	c      *Client
	w      *wconn
	stmts  map[uint64]*Stmt
	rows   map[uint64]*Rows // open server-side cursors
	inTxn  bool
	closed bool
	fetch  int // streaming-page row hint; 0 = Options.FetchSize

	// begin: Begin was called and no request has told the server yet. The
	// first OpExec/OpExecStmt carries it as wire.FlagBegin; any other
	// request is preceded by an explicit OpBegin (do).
	begin bool
	buf   []byte // statement payload scratch, reused across calls

	trace      bool // request server-side tracing on every request
	curTraceID uint64
	traceT0    time.Time
	lastTrace  *TraceResult
	dist       *DistTrace // shared distributed trace (overrides trace)
}

// TraceResult is the client-side view of one completed traced unit (an
// autocommit statement or a whole BEGIN..COMMIT transaction): the server's
// stage breakdown plus the client's wall-clock view, whose difference is
// time spent on the network (and in client/server queues).
type TraceResult struct {
	// Info is the server's stage-timing block from the terminal response.
	Info *wire.TraceInfo
	// ClientNS is wall time from the unit's first traced request being
	// written to its terminal response being received.
	ClientNS int64
}

// NetworkNS estimates time outside the server's measured pipeline:
// client wall time minus the server's span (never negative).
func (t *TraceResult) NetworkNS() int64 {
	n := t.ClientNS - t.Info.TotalNS
	if n < 0 {
		n = 0
	}
	return n
}

// Trace enables or disables tracing for this session's requests. While on,
// every request carries a client-assigned trace id, forcing the server to
// trace it regardless of its sampling policy; the terminal response of each
// traced unit returns the server's stage timings (see LastTrace).
func (s *Session) Trace(on bool) {
	s.trace = on
	if !on {
		s.curTraceID = 0
	}
}

// LastTrace returns the stage breakdown of the most recently completed
// traced unit, or nil if none completed yet (tracing off, or the server
// runs without a tracer).
func (s *Session) LastTrace() *TraceResult { return s.lastTrace }

// traceIDs returns the (trace id, hop id) pair for the next request. An
// attached distributed trace supplies both: the shared trace id and a
// fresh hop id numbering this request within the distributed transaction.
// Otherwise plain per-session tracing applies with hop 0: trace id 0 when
// tracing is off, else the current unit's id (allocating one, and stamping
// the unit's start time, when a new unit begins).
func (s *Session) traceIDs() (uint64, uint32) {
	if s.dist != nil {
		if s.traceT0.IsZero() {
			s.traceT0 = time.Now()
		}
		return s.dist.ID(), s.dist.nextHop()
	}
	if !s.trace {
		return 0, 0
	}
	if s.curTraceID == 0 {
		s.curTraceID = s.c.traceSeq.Add(1)
		s.traceT0 = time.Now()
	}
	return s.curTraceID, 0
}

// Close rolls back any open transaction, closes any open prepared
// statements and cursors, and returns the connection to the pool. All of
// it must round-trip before the connection is pooled: a reused connection
// is the same server-side session, so pooling one with an open transaction
// would leak that transaction (and its worker slot) to the next lessee,
// pooling one with live statement ids would leak server-side
// statement-table entries (and let a stale client Stmt execute against a
// stranger's session), and pooling one with a live cursor would leak its
// worker slot and pinned snapshot until the cursor table fills. If any
// cleanup fails the connection is discarded instead.
func (s *Session) Close() {
	if s.closed {
		return
	}
	if s.inTxn && s.w.healthy() {
		s.Rollback() // sends nothing if the server never heard of the BEGIN
	}
	reusable := !s.inTxn
	if len(s.stmts)+len(s.rows) > 0 && s.w.healthy() {
		// Pipeline the closes: start them all, then collect.
		pend := make([]*Pending, 0, len(s.stmts)+len(s.rows))
		closeHandle := func(op wire.Op, id uint64) {
			p, err := s.w.start(op, wire.EncodeHandle(id), 0, 0)
			if err != nil {
				reusable = false
				return
			}
			pend = append(pend, p)
		}
		for id := range s.stmts {
			closeHandle(wire.OpCloseStmt, id)
		}
		for id := range s.rows {
			closeHandle(wire.OpScanClose, id)
		}
		for _, p := range pend {
			if _, err := p.wait(); err != nil {
				reusable = false
			}
		}
	}
	for _, st := range s.stmts {
		st.closed = true
	}
	for _, r := range s.rows {
		r.closed, r.err = true, ErrClientClosed
	}
	s.stmts, s.rows = nil, nil
	s.closed = true
	s.c.release(s.w, reusable)
}

// InTxn reports the client-side view of the transaction state.
func (s *Session) InTxn() bool { return s.inTxn }

// do round-trips one request on the pinned connection under its opcode's
// retry class. A BEGIN the server has not heard of goes first, as an explicit
// OpBegin: only a statement (stmt) can carry it.
func (s *Session) do(op wire.Op, payload []byte) (wire.Response, error) {
	if err := s.sendBegin(); err != nil {
		return wire.Response{}, err
	}
	return s.call(op, op.Retry(), payload)
}

// sendBegin tells the server of a pending BEGIN with an explicit OpBegin.
func (s *Session) sendBegin() error {
	if !s.begin {
		return nil
	}
	_, err := s.call(wire.OpBegin, wire.OpBegin.Retry(), nil)
	if err == nil {
		s.begin = false
	}
	return err
}

// stmt round-trips an OpExec or OpExecStmt payload built in s.buf. A pending
// BEGIN rides it as the flags trailer; such a statement is reissued only for
// an admission refusal (nothing executed), never for a conflict, and if it
// fails otherwise the server has rolled back what it opened, so the next
// statement carries the flag again.
//
// cols is the statement's previous column slice, which the result takes
// instead of a fresh one when its names are the same (nil: none).
func (s *Session) stmt(op wire.Op, cols []string) (*wire.Result, error) {
	class := op.Retry()
	if s.begin {
		s.buf = wire.AppendStmtFlags(s.buf, wire.FlagBegin)
		class = wire.RetryBusyOnly
	}
	r, err := s.call(op, class, s.buf)
	if cap(s.buf) > maxRetainedBuf {
		s.buf = nil
	}
	if err != nil {
		return nil, err
	}
	s.begin = false
	return decodeResultNote(s.w, r.Body, cols)
}

// call round-trips one request, reissuing it as class allows, and mirrors
// what the outcome did to the server-side transaction: conflict and duplicate
// errors abort it there (the session is detached), as does losing the
// connection. The response body aliases the connection's read buffer: it is
// valid until the session's next request.
func (s *Session) call(op wire.Op, class wire.RetryClass, payload []byte) (r wire.Response, err error) {
	if s.closed {
		return r, ErrClientClosed
	}
	err = s.c.retry(class, s.inTxn, func() error {
		r, err = s.roundTrip(op, payload)
		return err
	})
	if err != nil {
		if code := wire.CodeOf(err); code == wire.CodeConflict || code == wire.CodeDuplicate || !s.w.healthy() {
			s.inTxn, s.begin = false, false
		}
	}
	return r, err
}

// roundTrip is one attempt of call.
func (s *Session) roundTrip(op wire.Op, payload []byte) (wire.Response, error) {
	tid, hop := s.traceIDs()
	var sent time.Duration
	if s.dist != nil {
		sent = s.dist.Since()
	}
	t0 := time.Now()
	r, err := s.w.roundTrip(op, payload, t0, tid, hop)
	if r.Trace != nil {
		// Stage timings ride the terminal response of the traced unit;
		// receiving them completes the unit client-side. (A server whose
		// own sampler picked the request can return timings even when this
		// session never asked; then there is no unit start to diff against.)
		var clientNS int64
		if !s.traceT0.IsZero() {
			clientNS = int64(time.Since(s.traceT0))
		}
		s.lastTrace = &TraceResult{Info: r.Trace, ClientNS: clientNS}
		s.curTraceID = 0
		s.traceT0 = time.Time{}
		if s.dist != nil {
			s.dist.record(op, sent, time.Since(t0), r.Trace)
		}
	}
	return r, err
}

// Begin opens the session transaction. It sends nothing: the first statement
// carries the BEGIN, so what the server has to say about opening a
// transaction -- an admission refusal, above all -- is that statement's
// error. Only a Begin inside a transaction is sent, for the server to judge.
func (s *Session) Begin() error {
	if s.closed {
		return ErrClientClosed
	}
	if s.inTxn {
		_, err := s.do(wire.OpBegin, nil)
		return err
	}
	s.inTxn, s.begin = true, true
	return nil
}

// unbegun ends a transaction the server never heard of: committing or
// rolling back nothing takes no request.
func (s *Session) unbegun() bool {
	if !s.begin || s.closed {
		return false
	}
	s.inTxn, s.begin = false, false
	return true
}

// Commit commits; the response arrives when the commit is durable. The
// response carries the commit CSN, which becomes the session's client's
// read-your-writes token for subsequent replica reads; it is all of the
// response that is read.
func (s *Session) Commit() error {
	if s.unbegun() {
		return nil
	}
	r, err := s.do(wire.OpCommit, nil)
	if err == nil && len(r.Body) > 0 {
		var csn uint64
		if csn, err = wire.ResultCSN(r.Body); err == nil {
			s.w.noteCSN(csn)
		}
	}
	if err == nil {
		s.inTxn = false
	}
	return err
}

// Rollback aborts the session transaction.
func (s *Session) Rollback() error {
	if s.unbegun() {
		return nil
	}
	_, err := s.do(wire.OpAbort, nil)
	if err == nil {
		s.inTxn = false
	}
	return err
}

// ShardMap fetches the server's shard topology (OpShardMap) for router
// bootstrap. With expect=true the request asserts this session is talking
// to the node serving shard id; a mismatch is the typed CodeWrongShard
// refusal, the router's cue that its map is stale.
func (s *Session) ShardMap(expect bool, id uint32) (*wire.ShardMap, error) {
	r, err := s.do(wire.OpShardMap, wire.EncodeShardMapReq(expect, id))
	if err != nil {
		return nil, err
	}
	return wire.DecodeShardMap(r.Body)
}

// TxnPrepare votes on the open session transaction as a two-phase-commit
// participant under gtid. The response arrives when the prepare record is
// durable: wire.PreparedWrites means the coordinator owes this node a
// decision (TxnDecide), wire.PreparedReadOnly means the transaction wrote
// nothing and committed locally. An error response is a "no" vote -- the
// server has already aborted the transaction. The session transaction is
// over either way: a prepared participant belongs to the engine's decision
// path, never to this session. Prepare is never retried here -- a lost ack
// leaves the participant in-doubt, and only the coordinator's recovery
// protocol may resolve that.
func (s *Session) TxnPrepare(gtid string) (vote byte, err error) {
	r, err := s.do(wire.OpTxnPrepare, wire.EncodeGTID(gtid))
	// Any definitive server answer means the transaction is gone; only
	// admission refusals (Busy/Closed) answer without executing.
	if code := wire.CodeOf(err); code != wire.CodeBusy && code != wire.CodeClosed {
		s.inTxn, s.begin = false, false
	}
	if err != nil {
		return 0, err
	}
	if len(r.Body) != 1 || r.Body[0] > wire.PreparedReadOnly {
		return 0, wire.ErrPayloadCorrupt
	}
	return r.Body[0], nil
}

// TxnDecide delivers the coordinator's decision for a prepared gtid; the
// response (the commit CSN, 0 for abort) arrives when the decision record
// is durable and applied. Idempotent server-side, so a coordinator may
// re-deliver after a lost ack.
func (s *Session) TxnDecide(gtid string, commit bool) (uint64, error) {
	r, err := s.do(wire.OpTxnDecide, wire.EncodeTxnDecide(gtid, commit))
	if err != nil {
		return 0, err
	}
	return wire.DecodeTxnCSN(r.Body)
}

// TxnStatus asks a participant for a gtid's outcome (wire.Txn* state byte
// plus commit CSN). Recovering coordinators use it against a transaction's
// home shard to learn the authoritative decision.
func (s *Session) TxnStatus(gtid string) (state byte, csn uint64, err error) {
	r, err := s.do(wire.OpTxnStatus, wire.EncodeGTID(gtid))
	if err != nil {
		return 0, 0, err
	}
	return wire.DecodeTxnState(r.Body)
}

// TxnRecover lists the gtids prepared on this node but still undecided --
// the in-doubt set a recovering coordinator must resolve.
func (s *Session) TxnRecover() ([]string, error) {
	r, err := s.do(wire.OpTxnRecover, nil)
	if err != nil {
		return nil, err
	}
	return wire.DecodeGTIDList(r.Body)
}

// TxnForget tells a participant to prune a decided gtid's 2PC bookkeeping.
// Coordinators send it only once the decision is known durably applied at
// every participant; the response arrives when the forget record is durable.
// Best-effort -- a lost forget just retains metadata.
func (s *Session) TxnForget(gtid string) error {
	_, err := s.do(wire.OpTxnForget, wire.EncodeGTID(gtid))
	return err
}

// Stats fetches the server stats snapshot.
func (s *Session) Stats() (string, error) {
	r, err := s.do(wire.OpStats, nil)
	return string(r.Body), err
}

// Ping round-trips an empty frame.
func (s *Session) Ping() error {
	_, err := s.do(wire.OpPing, nil)
	return err
}

// txnVerb reports whether sql is bare BEGIN/COMMIT/ROLLBACK text (any
// case, optional trailing semicolon), returning the normalized verb or "".
// The client has to know: the verbs change the transaction state it mirrors.
func txnVerb(sql string) string {
	switch t := strings.ToUpper(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))); t {
	case "BEGIN", "COMMIT", "ROLLBACK":
		return t
	}
	return ""
}

// control runs a transaction verb through its dedicated opcode, so that
// interactive drivers (hishell) and prepared verbs get pipelined commits
// and correct state tracking.
func (s *Session) control(verb string) (*wire.Result, error) {
	switch verb {
	case "BEGIN":
		return &wire.Result{}, s.Begin()
	case "COMMIT":
		return &wire.Result{}, s.Commit()
	}
	return &wire.Result{}, s.Rollback()
}

// Exec runs one statement; BEGIN/COMMIT/ROLLBACK text routes to the
// dedicated opcodes.
func (s *Session) Exec(sql string, args ...core.Value) (*wire.Result, error) {
	if verb := txnVerb(sql); verb != "" {
		return s.control(verb)
	}
	s.buf = wire.AppendExec(s.buf[:0], sql, args)
	return s.stmt(wire.OpExec, nil)
}

// ExecAt runs one read-only statement at-or-after minCSN: on a replica
// the server waits (bounded) for its applied watermark to reach minCSN
// before executing, answering CodeBusy if it cannot catch up in time.
func (s *Session) ExecAt(minCSN uint64, sql string, args ...core.Value) (*wire.Result, error) {
	return s.result(s.do(wire.OpExecAt, wire.AppendExecAt(nil, minCSN, sql, args)))
}

// result decodes a Result body, folding its trailing commit CSN (the
// read-your-writes token) into the client token.
func (s *Session) result(r wire.Response, err error) (*wire.Result, error) {
	if err != nil {
		return nil, err
	}
	return decodeResultNote(s.w, r.Body, nil)
}

// decodeResultNote decodes a Result body, taking cols as its Columns when
// the names match (see wire.DecodeResultCSN), and folds its CSN trailer into
// the client token.
func decodeResultNote(w *wconn, body []byte, cols []string) (*wire.Result, error) {
	if len(body) == 0 {
		return &wire.Result{}, nil
	}
	res, csn, err := wire.DecodeResultCSN(body, cols)
	if err != nil {
		return nil, err
	}
	w.noteCSN(csn)
	return res, nil
}

// --- prepared statements ---------------------------------------------------

// Stmt is a server-side prepared statement: parse/plan was paid once at
// Prepare, and every Exec ships only the statement id and an argument
// row. A Stmt is bound to its session (statement ids are scoped to the
// server-side session) and, like the session, is not safe for concurrent
// use. Session.Close closes any statements still open.
//
// The results of one Stmt share their Columns slice for as long as the names
// stay the same (a new one when they change): it is read-only.
type Stmt struct {
	s       *Session
	id      uint64
	verb    string // BEGIN/COMMIT/ROLLBACK, delegated to session state tracking
	nParams int
	closed  bool
	cols    []string // the column names of its last result
}

// Prepare compiles sql server-side and returns its statement handle.
// Preparing executes nothing, so it is retried even inside a transaction.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	r, err := s.do(wire.OpPrepare, wire.EncodePrepare(sql))
	if err != nil {
		return nil, err
	}
	id, n, err := wire.DecodePrepareResult(r.Body)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	st := &Stmt{s: s, id: id, verb: txnVerb(sql), nParams: n}
	if s.stmts == nil {
		s.stmts = make(map[uint64]*Stmt)
	}
	s.stmts[id] = st
	return st, nil
}

// NumParams reports the statement's parameter count.
func (st *Stmt) NumParams() int { return st.nParams }

// Exec runs the prepared statement. Prepared BEGIN/COMMIT/ROLLBACK
// delegate to the session's transaction methods so client-side state
// tracking (and the pipelined commit path) stay exactly as for text.
func (st *Stmt) Exec(args ...core.Value) (*wire.Result, error) {
	if st.closed {
		return nil, ErrStmtClosed
	}
	if st.verb != "" {
		return st.s.control(st.verb)
	}
	st.s.buf = wire.AppendExecStmt(st.s.buf[:0], st.id, args)
	res, err := st.s.stmt(wire.OpExecStmt, st.cols)
	if err == nil {
		st.cols = res.Columns
	}
	return res, err
}

// ExecPipe sends a prepared execution without waiting (no retry). A
// prepared COMMIT/ROLLBACK updates the client-side transaction flag like
// CommitPipe; otherwise transaction-state tracking is the caller's
// concern when pipelining.
func (st *Stmt) ExecPipe(args ...core.Value) (*Pending, error) {
	if st.closed {
		return nil, ErrStmtClosed
	}
	p, err := st.s.pipe(wire.OpExecStmt, wire.AppendExecStmt(nil, st.id, args))
	if st.verb != "" {
		st.s.inTxn, st.s.begin = st.verb == "BEGIN", false
	}
	return p, err
}

// Close releases the server-side statement. Closing twice (or closing
// after the session closed) is a no-op; server-side close is idempotent.
func (st *Stmt) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	s := st.s
	delete(s.stmts, st.id)
	if s.closed || !s.w.healthy() {
		return nil
	}
	_, err := s.do(wire.OpCloseStmt, wire.EncodeHandle(st.id))
	return err
}

// --- pipelined futures -----------------------------------------------------

// Pending is an in-flight request: the pipelining primitive. Start
// several, then wait; responses complete in whatever order the server
// answers (commits answer at durability). A Pending belongs to its session
// and, like it, is not safe for concurrent use.
type Pending struct {
	w  *wconn
	id uint64

	// Set, under w.mu, by whoever reads this request's response off the
	// socket while waiting for another: r is the parked response (its body a
	// copy) and done says it is there.
	r    wire.Response
	done bool
}

// pipe sends one request without waiting for its response (no retry). A
// BEGIN the server has not heard of is sent, and answered, first: nothing may
// be in flight behind a BEGIN that might yet be refused.
func (s *Session) pipe(op wire.Op, payload []byte) (*Pending, error) {
	if s.closed {
		return nil, ErrClientClosed
	}
	if err := s.sendBegin(); err != nil {
		return nil, err
	}
	tid, hop := s.traceIDs()
	return s.w.start(op, payload, tid, hop)
}

// ExecPipe sends a statement without waiting (no retry; transaction-state
// tracking is the caller's concern when pipelining).
func (s *Session) ExecPipe(sql string, args ...core.Value) (*Pending, error) {
	return s.pipe(wire.OpExec, wire.AppendExec(nil, sql, args))
}

// CommitPipe sends a commit without waiting; Wait returns at durability.
func (s *Session) CommitPipe() (*Pending, error) {
	p, err := s.pipe(wire.OpCommit, nil)
	s.inTxn, s.begin = false, false
	return p, err
}

// Wait blocks for the response.
func (p *Pending) Wait() (*wire.Result, error) {
	r, err := p.wait()
	if err != nil {
		return nil, err
	}
	return decodeResultNote(p.w, r.Body, nil)
}

// wait blocks for the future's response, the connection's failure, or the
// timeout (which fails the connection: request IDs cannot be resynced
// once a response is abandoned).
func (p *Pending) wait() (wire.Response, error) {
	w := p.w
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case p.done:
		// r rides along with an error: traced error responses still carry
		// stage timings worth surfacing.
		return p.r, p.r.Err()
	case w.err != nil:
		return wire.Response{}, w.err
	case w.piped[p.id] != p:
		return wire.Response{}, fmt.Errorf("client: request %d already waited for", p.id)
	}
	delete(w.piped, p.id)
	w.arm(time.Now())
	return w.recv(p.id)
}

// --- connection ------------------------------------------------------------

// maxUnread bounds the pipelined requests one connection may have sent
// without reading their responses. A sender about to exceed it reads one
// response first (parking it with its Pending), so however far a caller
// pipelines ahead of its Waits, the responses owed never outgrow what the
// socket buffers hold and the server never blocks writing to a connection
// nobody reads -- which would stop it reading, and deadlock the sender.
const maxUnread = 64

// wconn is one TCP connection, driven by whichever goroutine is using it:
// that goroutine writes its request and reads the socket until its response
// arrives. mu serialises them; a session is used by one goroutine at a time,
// so it is uncontended. A response body aliases the frame reader's buffer:
// valid until the next read on the connection.
type wconn struct {
	c  *Client
	nc net.Conn

	mu   sync.Mutex
	br   *bufio.Reader
	fr   *wire.FrameReader
	wbuf []byte        // the request frame being written
	dl   wire.Deadline // socket deadline (read and write), armed lazily

	// piped holds the pipelined requests whose responses are still on the
	// socket (at most maxUnread); a synchronous round trip is never in it.
	piped  map[uint64]*Pending
	reqSeq uint64
	err    error // sticky: set once the connection fails
}

func newWconn(c *Client, nc net.Conn) *wconn {
	br := bufio.NewReader(nc)
	return &wconn{c: c, nc: nc, br: br, fr: wire.NewFrameReader(br, false)}
}

// noteCSN folds a commit CSN from a response body into the client's shared
// read-your-writes token.
func (w *wconn) noteCSN(v uint64) { raise(w.c.csn, v) }

// healthy reports whether the connection can carry more requests.
func (w *wconn) healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err == nil
}

// settled reports whether the connection is healthy with nothing in flight:
// fit to be pooled.
func (w *wconn) settled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err == nil && len(w.piped) == 0
}

// quiet is the lease-time check of a pooled connection: healthy, and nothing
// to read -- neither buffered nor, by one non-blocking peek, on the socket,
// where anything at all (a notice, the server's FIN, an error) means the
// connection is no longer what it was when it was pooled.
func (w *wconn) quiet() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.br.Buffered() > 0 {
		return false
	}
	// A deadline that lapsed in the pool would answer the peek by itself,
	// without a look at the socket.
	w.arm(time.Now())
	return !readable(w.nc)
}

// fail marks the connection dead.
func (w *wconn) fail(err error) {
	w.mu.Lock()
	w.failLocked(err)
	w.mu.Unlock()
}

// failLocked latches the connection's first failure, closes the socket and
// returns the sticky error: what every current and later request sees.
func (w *wconn) failLocked(err error) error {
	if w.err == nil {
		w.err = err
		w.piped = nil
		w.nc.Close()
	}
	return w.err
}

// arm makes the socket deadline cover RequestTimeout from now: a request's
// write and the read of its response, or one Wait.
func (w *wconn) arm(now time.Time) {
	w.dl.Arm(w.nc.SetDeadline, now, w.c.opts.RequestTimeout)
}

// roundTrip sends one request and reads until its response arrives. A
// nonzero traceID flags the frame as traced, asking the server to trace the
// request; hop is the request's span id within a distributed trace (0
// outside one).
func (w *wconn) roundTrip(op wire.Op, payload []byte, now time.Time, traceID uint64, hop uint32) (wire.Response, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.arm(now)
	id, err := w.send(op, payload, traceID, hop)
	if err != nil {
		return wire.Response{}, err
	}
	return w.recv(id)
}

// start sends one pipelined request and returns its future.
func (w *wconn) start(op wire.Op, payload []byte, traceID uint64, hop uint32) (*Pending, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.arm(time.Now())
	if _, err := w.recv(0); err != nil { // keep within maxUnread
		return nil, err
	}
	id, err := w.send(op, payload, traceID, hop)
	if err != nil {
		return nil, err
	}
	p := &Pending{w: w, id: id}
	if w.piped == nil {
		w.piped = make(map[uint64]*Pending)
	}
	w.piped[id] = p
	return p, nil
}

// send frames one request into the connection's buffer and writes it.
func (w *wconn) send(op wire.Op, payload []byte, traceID uint64, hop uint32) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.reqSeq++
	f := wire.Frame{RequestID: w.reqSeq, Op: op, Payload: payload}
	if traceID != 0 {
		f.Traced, f.TraceID, f.Hop = true, traceID, hop
	}
	w.wbuf = wire.AppendFrame(w.wbuf[:0], f)
	_, err := w.nc.Write(w.wbuf)
	if cap(w.wbuf) > maxRetainedBuf {
		w.wbuf = nil
	}
	if err != nil {
		return 0, w.failLocked(fmt.Errorf("client: write: %w", err))
	}
	return w.reqSeq, nil
}

// maxRetainedBuf bounds the buffers a connection (frame) and a session
// (statement payload) keep between requests: one huge statement must not pin
// its size for their lifetime.
const maxRetainedBuf = 64 << 10

// recv is the connection's one read path: it reads the socket until request
// id's response arrives and returns it, its body still in the frame buffer,
// with its status as the error. With id 0 it reads only while maxUnread
// pipelined responses are unread. On the way, a response to another in-flight
// request is parked, its body copied, with that request's Pending. A
// RequestID-0 frame is a connection-level notice, acted on here: the greeting
// is recorded, a non-OK code (the server's refusal, idle reap or read
// timeout) fails the connection with that error so current and future
// requests see it. Any failure -- I/O, timeout, an undecodable frame, a
// response nobody is owed -- fails the connection.
func (w *wconn) recv(id uint64) (wire.Response, error) {
	for id != 0 || len(w.piped) >= maxUnread {
		if w.err != nil {
			return wire.Response{}, w.err
		}
		f, err := w.fr.Read()
		if err != nil {
			return wire.Response{}, w.failLocked(fmt.Errorf("client: read: %w", err))
		}
		r, err := wire.DecodeResponseFrame(f)
		if err != nil {
			return wire.Response{}, w.failLocked(fmt.Errorf("client: %w", err))
		}
		switch p := w.piped[f.RequestID]; {
		case f.RequestID == 0:
			if err := r.Err(); err != nil {
				return wire.Response{}, w.failLocked(err)
			}
			if role, primary, epoch, ok := wire.DecodeGreeting(r.Body); ok {
				w.c.noteEpoch(epoch)
				w.c.greeting.Store(&Greeting{Role: role, PrimaryAddr: primary, Epoch: epoch})
			}
		case f.RequestID == id:
			return r, r.Err()
		case p != nil:
			delete(w.piped, f.RequestID)
			r.Body = append([]byte(nil), r.Body...)
			p.r, p.done = r, true
		default:
			return wire.Response{}, w.failLocked(fmt.Errorf("client: %w: response to request %d, which is not in flight",
				wire.ErrProtocol, f.RequestID))
		}
	}
	return wire.Response{}, nil
}
