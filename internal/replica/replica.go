// Package replica implements read replicas by WAL log shipping: the
// paper's "the log is the database" run live (Section 3.1's on-demand
// compute-side replicas, stretched across processes).
//
// The primary exposes its SRSS PLogs over three wire opcodes (hello /
// list / fetch). A replica process runs a Shipper that mirrors every
// primary PLog -- manifest, directory meta, checkpoint images, log
// segments -- byte-for-byte into its own local SRSS service under the
// same PLog IDs, so the primary's manifest references resolve locally
// unchanged. On top of the mirror, a core.Replica (the same machinery
// recovery uses) replays new log records on every poll; the Follower
// binds the two into a loop and publishes the replica's durable-CSN
// watermark, which snapshot reads and the read-your-writes token wait on.
//
// Sealed PLogs are mirrored then sealed; torn PLogs are mirrored up to
// their readable extent then sealed torn, so the follower's tail
// classification truncates exactly where crash recovery would. A PLog
// still growing on the primary is simply left unsealed locally: the
// follower's live-tail scan classification ("end of available log, retry
// later") makes a half-shipped record a retry, never a truncation.
package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// Chaos sites on the replication path (see internal/chaos). The failover
// torture harness arms these to tear shipping mid-chunk, fail catch-up
// application, and fail promotion mid-step.
const (
	// SiteShipFetch fires before each log-shipping fetch round trip.
	SiteShipFetch = "replica.ship.fetch"
	// SiteApply fires before each follower catch-up application pass.
	SiteApply = "replica.apply"
	// SitePromote fires mid-promotion: after the final catch-up drain,
	// before the engine transition.
	SitePromote = "replica.promote"
)

func init() {
	chaos.RegisterSite(SiteShipFetch, "before each log-shipping fetch round trip")
	chaos.RegisterSite(SiteApply, "before each follower catch-up application pass")
	chaos.RegisterSite(SitePromote, "mid-promotion, between final drain and engine transition")
}

// --- primary side -----------------------------------------------------------

// Source serves the log-shipping opcodes for a primary engine. It
// implements server.ReplicationSource.
//
// The first shipping request (a list or a fetch: a client's fencing probe
// says hello too) holds the engine's log compaction
// (core.Engine.HoldCompaction), for the Source's lifetime: a follower that
// has attached may resume from its mirror at any time, and one that applied a
// row's insert and had not yet mirrored its delete would keep the row if a
// compaction dropped the delete's segment. Checkpoints go on.
type Source struct {
	e      *core.Engine
	attach sync.Once
}

// NewSource exposes a primary engine's PLogs for shipping.
func NewSource(e *core.Engine) *Source { return &Source{e: e} }

// attached holds compaction once a follower ships.
func (s *Source) attached() { s.attach.Do(s.e.HoldCompaction) }

// ReplHello identifies the primary: its manifest PLog and current CSN.
func (s *Source) ReplHello() (srss.PLogID, uint64) {
	return s.e.ManifestID(), s.e.CurrentCSN()
}

// stat snapshots one PLog. Sealed/torn are read before size: a PLog never
// grows after sealing, so a true sealed flag guarantees the size read
// after it is final -- the shipper may seal its mirror on the strength of
// this stat alone.
func stat(p *srss.PLog) wire.PLogStat {
	sealed, torn := p.Sealed(), p.Torn()
	return wire.PLogStat{ID: p.ID(), Tier: p.Tier(), Size: p.Size(), Sealed: sealed, Torn: torn}
}

// ReplList enumerates the primary's PLogs across both tiers.
func (s *Source) ReplList() []wire.PLogStat {
	s.attached()
	svc := s.e.Service()
	var out []wire.PLogStat
	for _, tier := range []srss.Tier{srss.TierCompute, srss.TierStorage} {
		for _, id := range svc.List(tier) {
			p, err := svc.Open(id)
			if err != nil {
				continue // dropped between list and open
			}
			out = append(out, stat(p))
		}
	}
	return out
}

// ReplFetch reads up to maxBytes from one PLog at offset.
func (s *Source) ReplFetch(id srss.PLogID, offset int64, maxBytes int) (wire.PLogStat, []byte, error) {
	s.attached()
	p, err := s.e.Service().Open(id)
	if err != nil {
		return wire.PLogStat{}, nil, err
	}
	st := stat(p)
	n := st.Size - offset
	if n <= 0 {
		return st, nil, nil
	}
	if int64(maxBytes) < n {
		n = int64(maxBytes)
	}
	buf := make([]byte, n)
	if _, err := p.ReadAt(buf, offset); err != nil {
		// On a torn PLog the tail past the surviving extent is
		// unreadable; report the stat with no data so the shipper can
		// seal its mirror torn at what it has.
		return st, nil, err
	}
	return st, buf, nil
}

// --- shipper ----------------------------------------------------------------

// chunkSize bounds one fetch round trip (well under wire.MaxPayload).
const chunkSize = 256 << 10

// Shipper mirrors a primary's PLogs into a local SRSS service over the
// wire protocol. It owns one synchronous connection (log shipping is a
// single-reader stream; multiplexing buys nothing) and is not safe for
// concurrent use.
type Shipper struct {
	addr    string
	svc     *srss.Service
	timeout time.Duration

	nc     net.Conn
	fr     *wire.FrameReader
	reqSeq uint64

	manifest srss.PLogID // the primary's manifest PLog, valid after Hello
	// Atomic: read by lag gauges while the shipping goroutine advances
	// them mid-poll.
	helloCSN atomic.Uint64
	lagBytes atomic.Int64

	// epoch is the highest primary epoch observed in hello responses,
	// presented on every hello/fetch so a stale server can detect it is
	// fenced. Atomic: status surfaces read it off the shipping goroutine.
	epoch atomic.Uint64

	// Every fetchTraceEvery'th fetch round trip is traced: the primary's
	// stage timings for the sampled OpReplFetch land in lastTrace, so
	// replication-path latency is attributable to server stages without
	// taxing the steady-state shipping loop.
	fetchSeq  uint64
	lastTrace atomic.Pointer[wire.TraceInfo]

	// chaos (nil = inert) arms the replica.ship.fetch site.
	chaos *chaos.Engine

	// mirrored is the PLogs the last whole pass listed and mirrored.
	mirrored map[srss.PLogID]bool
}

// fetchTraceEvery samples one traced OpReplFetch out of this many.
const fetchTraceEvery = 64

// NewShipper ships from the primary at addr into svc.
func NewShipper(addr string, svc *srss.Service) *Shipper {
	sh := &Shipper{addr: addr, svc: svc, timeout: 10 * time.Second}
	if svc != nil {
		sh.chaos = svc.Chaos()
	}
	return sh
}

// ObserveEpoch raises the shipper's observed epoch (monotonic). Callers
// seed it with the replica's recovered epoch so the first hello already
// presents the lineage being followed.
func (sh *Shipper) ObserveEpoch(e uint64) {
	for {
		cur := sh.epoch.Load()
		if e <= cur || sh.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Close drops the connection. The next round trip redials.
func (sh *Shipper) Close() {
	if sh.nc != nil {
		sh.nc.Close()
		sh.nc, sh.fr = nil, nil
	}
}

// roundTrip sends one request and returns its success body (a copy: the
// read buffer is reused by the next frame). A traced request asks the
// primary for its stage timings, which land in lastTrace.
func (sh *Shipper) roundTrip(op wire.Op, payload []byte, traced bool) ([]byte, error) {
	if sh.nc == nil {
		nc, err := net.DialTimeout("tcp", sh.addr, sh.timeout)
		if err != nil {
			return nil, fmt.Errorf("replica: dial %s: %w", sh.addr, err)
		}
		sh.nc, sh.fr = nc, wire.NewFrameReader(bufio.NewReader(nc), false)
	}
	sh.reqSeq++
	id := sh.reqSeq
	req := wire.Frame{RequestID: id, Op: op, Payload: payload}
	if traced {
		// The request id doubles as the trace id: shipper traces are
		// single-hop point samples, never stitched across processes.
		req.Traced, req.TraceID, req.Hop = true, id, 1
	}
	sh.nc.SetDeadline(time.Now().Add(sh.timeout))
	if err := wire.WriteFrame(sh.nc, req); err != nil {
		sh.Close()
		return nil, fmt.Errorf("replica: write: %w", err)
	}
	for {
		f, err := sh.fr.Read()
		if err != nil {
			sh.Close()
			return nil, fmt.Errorf("replica: read: %w", err)
		}
		if f.RequestID != id {
			continue // the connection greeting (and any stale notice)
		}
		r, err := wire.DecodeResponseFrame(f)
		if err != nil {
			sh.Close()
			return nil, fmt.Errorf("replica: %w", err)
		}
		if r.Trace != nil {
			sh.lastTrace.Store(r.Trace)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return append([]byte(nil), r.Body...), nil
	}
}

// Hello fetches the primary's manifest identity and current CSN,
// presenting the shipper's observed epoch. A primary answering with a
// LOWER epoch than one already observed is a revived old primary: the
// hello fails with core.ErrStaleEpoch so the follower never applies a
// superseded lineage's log.
func (sh *Shipper) Hello() (srss.PLogID, uint64, error) {
	body, err := sh.roundTrip(wire.OpReplHello, wire.EncodeReplHelloReq(sh.epoch.Load()), false)
	if err != nil {
		return srss.PLogID{}, 0, err
	}
	m, csn, epoch, err := wire.DecodeReplHello(body)
	if err != nil {
		return srss.PLogID{}, 0, err
	}
	if epoch != 0 {
		if cur := sh.epoch.Load(); epoch < cur {
			return srss.PLogID{}, 0, fmt.Errorf("replica: primary %s at epoch %d, already observed %d: %w",
				sh.addr, epoch, cur, core.ErrStaleEpoch)
		}
		sh.ObserveEpoch(epoch)
	}
	sh.manifest = m
	sh.helloCSN.Store(csn)
	return m, csn, nil
}

// shipOnce lists the primary's PLogs and pulls every local mirror up to
// date, sealing mirrors of sealed PLogs (torn state mirrored), and deletes
// the mirror of a PLog the primary no longer lists: it was dropped there --
// a compacted segment, a superseded checkpoint image. Returns the number of
// bytes shipped.
func (sh *Shipper) shipOnce() (int64, error) {
	body, err := sh.roundTrip(wire.OpReplList, nil, false)
	if err != nil {
		return 0, err
	}
	stats, err := wire.DecodeReplList(body)
	if err != nil {
		return 0, err
	}
	var shipped, lag int64
	listed := make(map[srss.PLogID]bool, len(stats))
	for _, st := range stats {
		listed[st.ID] = true
		n, behind, err := sh.shipOne(st)
		shipped += n
		lag += behind
		if err != nil {
			sh.lagBytes.Store(lag)
			return shipped, err
		}
	}
	sh.lagBytes.Store(lag)
	// Only after a whole pass: the primary drops a PLog once what
	// supersedes it is durable, and the pass has mirrored that too. A
	// mirror already gone is all a failed delete can mean.
	for id := range sh.mirrored {
		if !listed[id] {
			_ = sh.svc.Delete(id)
		}
	}
	sh.mirrored = listed
	return shipped, nil
}

// shipOne mirrors a single PLog, returning bytes shipped and bytes still
// behind the primary afterwards.
func (sh *Shipper) shipOne(st wire.PLogStat) (shipped, behind int64, err error) {
	p, err := sh.svc.ImportPLog(st.ID, st.Tier)
	if err != nil {
		return 0, 0, err
	}
	for !p.Sealed() && p.Size() < st.Size {
		want := st.Size - p.Size()
		if want > chunkSize {
			want = chunkSize
		}
		cur, data, ferr := sh.fetch(st.ID, p.Size(), int(want))
		if ferr != nil || len(data) == 0 {
			if cur.Torn || st.Torn {
				// The primary's tail past the surviving extent is
				// unreadable: mirror the torn seal at what we hold; the
				// follower truncates at the last valid record like
				// recovery would.
				p.SealTorn()
				return shipped, 0, nil
			}
			if ferr == nil {
				ferr = fmt.Errorf("replica: short fetch of %v at %d", st.ID, p.Size())
			}
			return shipped, st.Size - p.Size(), ferr
		}
		if _, aerr := p.Append(data); aerr != nil {
			return shipped, st.Size - p.Size(), aerr
		}
		shipped += int64(len(data))
		st = cur // the primary may have grown or sealed meanwhile
	}
	if st.Sealed && !p.Sealed() && p.Size() >= st.Size {
		if st.Torn {
			p.SealTorn()
		} else {
			p.Seal()
		}
	}
	if behind = st.Size - p.Size(); behind < 0 {
		behind = 0
	}
	return shipped, behind, nil
}

func (sh *Shipper) fetch(id srss.PLogID, off int64, max int) (wire.PLogStat, []byte, error) {
	if err := sh.chaos.Check(SiteShipFetch); err != nil {
		sh.Close() // injected tear: drop the conn like a real network fault
		return wire.PLogStat{}, nil, err
	}
	sh.fetchSeq++
	traced := (sh.fetchSeq-1)%fetchTraceEvery == 0
	body, err := sh.roundTrip(wire.OpReplFetch, wire.EncodeReplFetch(id, off, max, sh.epoch.Load()), traced)
	if err != nil {
		return wire.PLogStat{}, nil, err
	}
	return wire.DecodeReplChunk(body)
}

// --- follower ---------------------------------------------------------------

// Follower runs the replica loop: ship, replay, publish the watermark.
type Follower struct {
	sh       *Shipper
	rep      *core.Replica
	interval time.Duration
	chaos    *chaos.Engine

	// pollMu serializes Poll rounds (the shipper connection is not safe
	// for concurrent use); the network phase runs under it alone, so
	// watermark readers and waiters never block behind a slow ship.
	pollMu sync.Mutex

	mu        sync.Mutex
	watermark uint64
	target    uint64        // primary CSN at last hello
	wake      chan struct{} // closed and replaced on each watermark advance
	started   bool
	promoted  bool

	stop      chan struct{}
	stopOnce  sync.Once
	done      chan struct{}
	fenceStop chan struct{}
	fenceOnce sync.Once
	err       error

	mPollErrs *obs.Counter
}

// newFollower binds a shipper and an open core.Replica into a polling
// loop (interval <= 0 defaults to 10ms). Lag gauges land in reg (nil =
// none): replica.applied_csn, replica.lag_csn, replica.lag_bytes.
func newFollower(sh *Shipper, rep *core.Replica, interval time.Duration, reg *obs.Registry) *Follower {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	f := &Follower{
		sh:        sh,
		rep:       rep,
		interval:  interval,
		chaos:     rep.Engine().Service().Chaos(),
		watermark: rep.AppliedCSN(),
		target:    sh.helloCSN.Load(),
		wake:      make(chan struct{}),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		fenceStop: make(chan struct{}),
	}
	// Present at least the lineage we recovered from on every exchange.
	sh.ObserveEpoch(rep.Engine().Epoch())
	f.mPollErrs = reg.Counter("replica.poll_errors")
	if reg != nil {
		reg.GaugeFunc("replica.applied_csn", func() int64 { return int64(f.AppliedCSN()) })
		reg.GaugeFunc("replica.lag_csn", func() int64 { return f.LagCSN() })
		reg.GaugeFunc("replica.lag_bytes", func() int64 { return f.sh.lagBytes.Load() })
	}
	return f
}

// LastFetchTrace returns the primary's stage timings from the most recent
// sampled traced log-shipping fetch (nil before one completes): the
// replication path's contribution to the node's observability surface.
func (f *Follower) LastFetchTrace() *wire.TraceInfo { return f.sh.lastTrace.Load() }

// SetInterval adjusts the poll cadence. Call before Start.
func (f *Follower) SetInterval(d time.Duration) {
	if d > 0 {
		f.interval = d
	}
}

// Start launches the follow loop.
func (f *Follower) Start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	go f.run()
}

func (f *Follower) run() {
	defer close(f.done)
	// Consecutive poll errors back off exponentially (jittered, capped at
	// ~10x the configured interval) so a dead primary doesn't produce a
	// tight dial-fail loop; a clean round snaps back to the base cadence.
	rng := chaos.NewRand(f.rep.Engine().Service().Chaos().Seed(), "replica.follower.backoff")
	consecutive := 0
	for {
		// Poll errors are transient (the primary may be restarting or
		// mid-drop): Err keeps the last one visible; retry after backoff.
		if err := f.Poll(); err != nil {
			consecutive++
		} else {
			consecutive = 0
		}
		d := f.interval
		if consecutive > 0 {
			shift := consecutive - 1
			if shift > 4 {
				shift = 4
			}
			d = f.interval << shift
			if max := 10 * f.interval; d > max {
				d = max
			}
			// Full jitter in [d/2, d): failed pollers desynchronize.
			d = d/2 + time.Duration(rng.Uint64()%uint64(d/2+1))
		}
		t := time.NewTimer(d)
		select {
		case <-f.stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// Poll runs one ship+replay round and advances the watermark. Exposed so
// tests (and single-threaded drivers) can pump the follower directly.
func (f *Follower) Poll() error {
	f.pollMu.Lock()
	_, csn, err := f.sh.Hello()
	if err == nil {
		// The hello response names the primary's CURRENT manifest; track
		// it so catch-up catalog refreshes survive manifest migration.
		f.rep.TrackManifest(f.sh.manifest)
		_, err = f.sh.shipOnce()
	}
	if err == nil {
		if err = f.chaos.Check(SiteApply); err == nil {
			_, err = f.rep.CatchUp()
		}
	}
	w := f.rep.AppliedCSN()
	f.pollMu.Unlock()

	f.mu.Lock()
	defer f.mu.Unlock()
	if csn > f.target {
		f.target = csn
	}
	if w > f.watermark {
		f.watermark = w
		close(f.wake)
		f.wake = make(chan struct{})
	}
	f.err = err
	if err != nil {
		f.mPollErrs.Inc()
	}
	return err
}

// AppliedCSN returns the replica's durable watermark: every commit at or
// below it is visible to snapshot reads here.
func (f *Follower) AppliedCSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.watermark
}

// LagCSN returns how far the watermark trails the primary CSN observed at
// the last hello (0 when caught up, and once promoted: nothing moves the
// target after that, and a primary trails no one).
func (f *Follower) LagCSN() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted || f.target <= f.watermark {
		return 0
	}
	return int64(f.target - f.watermark)
}

// Err returns the last poll error, nil after a clean round.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// WaitCSN blocks until the watermark reaches csn or timeout elapses,
// reporting whether it did: the server side of the read-your-writes
// token.
func (f *Follower) WaitCSN(csn uint64, timeout time.Duration) bool {
	f.mu.Lock()
	if f.watermark >= csn {
		f.mu.Unlock()
		return true
	}
	f.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		f.mu.Lock()
		if f.watermark >= csn {
			f.mu.Unlock()
			return true
		}
		wake := f.wake
		f.mu.Unlock()
		select {
		case <-wake:
		case <-t.C:
			f.mu.Lock()
			ok := f.watermark >= csn
			f.mu.Unlock()
			return ok
		}
	}
}

// Stop halts the loop (and any promotion fencer) and closes the shipping
// connection. Idempotent, and safe when Start was never called.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.mu.Lock()
	started := f.started
	f.mu.Unlock()
	if started {
		<-f.done
	}
	f.fenceOnce.Do(func() { close(f.fenceStop) })
	f.sh.Close()
}

// haltPolling stops the poll loop without touching the shipper (Promote
// still needs the connection for the final drain) and waits for the loop
// goroutine to exit so no Poll round races the promotion.
func (f *Follower) haltPolling() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.mu.Lock()
	started := f.started
	f.mu.Unlock()
	if started {
		<-f.done
	}
}

// Promote turns this follower's replica into the new primary: stop
// polling, drain a final catch-up to the end of the shipped log, seal the
// tail, and transition the engine into a writable one at a bumped,
// persisted epoch (core.Replica.Promote). The final hello/ship is
// best-effort -- the primary is normally already dead, and everything it
// acked below the shipped horizon is what promotion preserves.
//
// After the transition a fencer goroutine keeps knocking on the old
// primary's address with the new epoch until any response arrives, so a
// revived old primary demotes immediately instead of waiting to stumble
// over the new lineage. The fencer dies with Stop.
//
// Returns the new primary epoch. Idempotent: a second call returns the
// epoch already won. On error (including an armed replica.promote chaos
// fault) the replica is unchanged and Promote may be retried.
func (f *Follower) Promote() (uint64, error) {
	f.haltPolling()
	f.pollMu.Lock()
	defer f.pollMu.Unlock()
	f.mu.Lock()
	already := f.promoted
	f.mu.Unlock()
	if already {
		return f.rep.Engine().Epoch(), nil
	}
	// Final drain: pull whatever the primary can still serve, then apply
	// everything shipped. Ship errors are expected (dead primary); a
	// catch-up failure is not -- promotion must not lose applied history.
	if _, _, err := f.sh.Hello(); err == nil {
		f.rep.TrackManifest(f.sh.manifest)
		_, _ = f.sh.shipOnce()
	}
	if _, err := f.rep.CatchUp(); err != nil {
		return 0, err
	}
	if err := f.chaos.Check(SitePromote); err != nil {
		return 0, err
	}
	epoch, err := f.rep.Promote(f.sh.epoch.Load())
	if err != nil {
		return 0, err
	}
	w := f.rep.AppliedCSN()
	f.mu.Lock()
	f.promoted = true
	f.err = nil
	if w > f.watermark {
		f.watermark = w
		close(f.wake)
		f.wake = make(chan struct{})
	}
	f.mu.Unlock()
	f.sh.Close()
	go f.fence(f.sh.addr, epoch)
	return epoch, nil
}

// fence presents the promoted epoch at the old primary's address until any
// response crosses the wire. One answered hello is enough: the server
// folds the carried epoch into its fencing state before replying, so a
// revived old primary demotes the moment it comes back -- it never has a
// window to accept writes the new lineage would lose. Dial/read failures
// (the address staying dead) just mean there is nothing to fence yet.
func (f *Follower) fence(addr string, epoch uint64) {
	sh := NewShipper(addr, nil)
	sh.ObserveEpoch(epoch)
	defer sh.Close()
	retry := f.interval * 10
	if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	for {
		_, _, err := sh.Hello()
		var we *wire.Error
		if err == nil || errors.As(err, &we) || errors.Is(err, core.ErrStaleEpoch) {
			return // a response arrived: the old node has observed our epoch
		}
		t := time.NewTimer(retry)
		select {
		case <-f.fenceStop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// --- bootstrap --------------------------------------------------------------

// Bootstrap dials the primary, mirrors its PLogs into a fresh local SRSS
// service, and opens a core.Replica over the mirror. The returned
// follower is NOT started; callers wire it into their server first (the
// watermark is valid immediately -- it is the recovery MaxCSN).
func Bootstrap(primaryAddr string, cfg core.Config, opt core.RecoverOptions, reg *obs.Registry) (*Follower, *core.Replica, error) {
	if cfg.Service == nil {
		return nil, nil, errors.New("replica: Bootstrap requires cfg.Service (the local mirror)")
	}
	sh := NewShipper(primaryAddr, cfg.Service)
	manifest, _, err := sh.Hello()
	if err != nil {
		return nil, nil, err
	}
	if _, err := sh.shipOnce(); err != nil {
		sh.Close()
		return nil, nil, err
	}
	rep, _, err := core.OpenReplica(cfg, manifest, opt)
	if err != nil {
		sh.Close()
		return nil, nil, err
	}
	f := newFollower(sh, rep, 0, reg)
	return f, rep, nil
}
