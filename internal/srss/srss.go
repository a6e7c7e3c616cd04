// Package srss simulates SRSS, Huawei's shared reliable storage service that
// HiEngine is built on (Sections 2.2-2.3 of the paper).
//
// SRSS exposes one abstraction: the persistent log (PLog), a contiguous
// fixed-maximum-size append-only chunk. PLogs can be created, opened,
// appended to, read, sealed and deleted; in-place update is impossible by
// construction. Writes are replicated synchronously to three nodes and
// acknowledged only when all three replicas are durable. If a replica node
// fails during a write, the PLog is permanently sealed and the application
// retries the append on a fresh PLog placed on healthy nodes.
//
// SRSS spans two tiers. Compute-tier PLogs live in persistent memory on
// compute nodes and are replicated over the fast intra-compute RDMA network;
// this is the compute-side persistence that lets HiEngine commit at
// microsecond latency. Storage-tier PLogs live on SSDs behind the slower
// cross-layer network. Either tier supports mmap-style read-only views.
//
// The simulation keeps all replicas of a PLog in one heap, so it holds each
// logged byte once: a PLog has one list of fixed-size chunks, and a replica
// is a node and an extent, the prefix of that list the node holds. An append
// copies its bytes into the list once and advances every extent; a torn
// write leaves the extents apart, each at its own cut.
// The simulation charges tier-appropriate latencies through a delay.Model and
// supports failure injection on individual nodes.
package srss

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/delay"
	"hiengine/internal/obs"
)

// Chaos injection sites owned by this package. See internal/chaos and the
// DESIGN.md fault-model section for rule semantics.
const (
	// SiteAppendBefore fires before any replica receives bytes: a crash
	// here loses the append entirely (nothing persisted, nothing acked).
	SiteAppendBefore = "srss.append.before"
	// SiteAppendTear fires mid-replication: each replica keeps an
	// independently chosen prefix of the data, the PLog seals and is
	// marked torn, and the crash latches. Recovery must detect and
	// truncate the resulting checksum-invalid tail.
	SiteAppendTear = "srss.append.tear"
	// SiteAppendAfter fires after all replicas are durable but before the
	// offset is returned: the data survives recovery, the ack is lost.
	SiteAppendAfter = "srss.append.after"
	// SiteRead fires on PLog reads and mmap-view accesses (crash or
	// transient slowness on the read path).
	SiteRead = "srss.read"
	// SiteDestageMid fires between destage copy batches: a crash leaves a
	// partial, unregistered storage-tier PLog behind.
	SiteDestageMid = "srss.destage.mid"
)

func init() {
	chaos.RegisterSite(SiteAppendBefore, "crash before replication: append lost entirely")
	chaos.RegisterSite(SiteAppendTear, "torn replicated write: divergent replica prefixes, PLog seals, crash latches")
	chaos.RegisterSite(SiteAppendAfter, "crash after replication: append durable, ack lost")
	chaos.RegisterSite(SiteRead, "crash or slowness on PLog read / mmap access")
	chaos.RegisterSite(SiteDestageMid, "crash between destage copy batches: partial archive PLog")
}

// Tier identifies where a PLog's replicas are placed.
type Tier int

const (
	// TierCompute places replicas in persistent memory on compute nodes.
	TierCompute Tier = iota
	// TierStorage places replicas on SSDs on storage nodes.
	TierStorage
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierCompute:
		return "compute"
	case TierStorage:
		return "storage"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// PLogID identifies a PLog. SRSS uses 24-byte identifiers (Section 4.2);
// the simulation packs a tier tag and a sequence number into the same width.
type PLogID [24]byte

// String renders the ID compactly for logs and errors.
func (id PLogID) String() string {
	return fmt.Sprintf("plog-%x", id[:8])
}

// IsZero reports whether the ID is the zero (invalid) ID.
func (id PLogID) IsZero() bool { return id == PLogID{} }

// Errors returned by the service.
var (
	// ErrSealed is returned when appending to a sealed PLog. The caller
	// must create a new PLog and retry the write (Section 2.2).
	ErrSealed = errors.New("srss: plog is sealed")
	// ErrFull is returned when an append would exceed the PLog max size.
	ErrFull = errors.New("srss: plog is full")
	// ErrNotFound is returned when opening an unknown PLog.
	ErrNotFound = errors.New("srss: plog not found")
	// ErrOutOfRange is returned for reads past the durable end of a PLog.
	ErrOutOfRange = errors.New("srss: read out of range")
	// ErrNoHealthyNodes is returned when a tier has fewer healthy nodes
	// than the replication factor.
	ErrNoHealthyNodes = errors.New("srss: not enough healthy nodes")
	// ErrDeleted is returned when operating on a deleted PLog.
	ErrDeleted = errors.New("srss: plog deleted")
)

// PlacementError is the typed failure of replica placement: a tier had
// fewer healthy nodes than the replication factor. It unwraps to
// ErrNoHealthyNodes, so errors.Is checks keep working.
type PlacementError struct {
	Tier Tier
	Need int // replication factor requested
	Have int // healthy nodes available
}

// Error renders the placement failure.
func (e *PlacementError) Error() string {
	return fmt.Sprintf("srss: not enough healthy nodes: tier %v needs %d, have %d healthy",
		e.Tier, e.Need, e.Have)
}

// Unwrap ties the typed error into the ErrNoHealthyNodes chain.
func (e *PlacementError) Unwrap() error { return ErrNoHealthyNodes }

// Config configures a simulated SRSS deployment.
type Config struct {
	// Model is the latency model; nil means delay.Zero().
	Model *delay.Model
	// Waiter charges latencies; nil means a real sleeping waiter.
	Waiter delay.Waiter
	// ComputeNodes and StorageNodes size the two tiers. Defaults: 3 and 3.
	ComputeNodes int
	StorageNodes int
	// Replicas is the replication factor (default 3).
	Replicas int
	// MaxPLogSize caps each PLog (paper: 4 GiB). Tests use small values.
	MaxPLogSize int64
	// ChunkSize is the allocation granularity of replica buffers. Reads
	// wholly inside one chunk are zero-copy. Default 256 KiB.
	ChunkSize int
	// Chaos is the fault-injection engine driving the deployment's fault
	// schedule. Nil (the default) disables injection entirely; layers
	// above SRSS (wal, core) share this engine via Service.Chaos so one
	// seed governs the whole stack.
	Chaos *chaos.Engine
}

func (c *Config) fill() {
	if c.Model == nil {
		c.Model = delay.Zero()
	}
	if c.Waiter == nil {
		c.Waiter = delay.SleepWaiter{}
	}
	if c.ComputeNodes == 0 {
		c.ComputeNodes = 3
	}
	if c.StorageNodes == 0 {
		c.StorageNodes = 3
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.MaxPLogSize == 0 {
		c.MaxPLogSize = 4 << 30
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 256 << 10
	}
}

// Stats counts service activity; all fields are updated atomically.
type Stats struct {
	Appends        atomic.Int64
	AppendBytes    atomic.Int64
	Reads          atomic.Int64
	ReadBytes      atomic.Int64
	Seals          atomic.Int64
	CrossLayerOps  atomic.Int64
	ComputeTierOps atomic.Int64
	// TornAppends counts chaos-injected torn replicated writes.
	TornAppends atomic.Int64
	// Repairs counts replicas re-replicated onto healthy nodes.
	Repairs atomic.Int64
	// RepairedPLogs counts PLogs restored to a fully healthy replica set.
	RepairedPLogs atomic.Int64
	// PlacementFailures counts replica placements rejected for lack of
	// healthy nodes (PLog creation and repair).
	PlacementFailures atomic.Int64
}

// Service is a simulated SRSS deployment: a set of compute nodes and storage
// nodes hosting replicated PLogs.
type Service struct {
	cfg    Config
	nextID atomic.Uint64

	mu    sync.RWMutex
	plogs map[PLogID]*PLog

	computeNodes []*Node
	storageNodes []*Node

	// rr provides round-robin placement per tier.
	rrCompute atomic.Uint64
	rrStorage atomic.Uint64

	// wellKnown is the management-node registry (Section 4.2: bootstrap
	// PLog IDs are "stored in a well-known location such as management
	// nodes"). Applications register the identity of metadata PLogs here
	// so the identity survives PLog seal-and-migrate cycles.
	wkMu      sync.RWMutex
	wellKnown map[string]PLogID

	// obsM holds observability handles; an atomic pointer because an
	// engine may attach a registry while another engine is already
	// driving traffic through the shared service.
	obsM atomic.Pointer[obsMetrics]

	stats Stats
}

// obsMetrics is the set of handles recorded on the service hot paths.
type obsMetrics struct {
	appendLatency     *obs.Histogram // charged append+replication latency, ns
	readLatency       *obs.Histogram // charged read latency, ns
	crossLayerOps     *obs.Counter
	computeOps        *obs.Counter
	seals             *obs.Counter
	tornAppends       *obs.Counter
	repairs           *obs.Counter
	placementFailures *obs.Counter
}

// AttachObs wires the service's hot paths to an observability registry.
// The first attachment wins; later calls (e.g. a replica engine sharing
// the deployment) are no-ops so counters are not split across registries.
func (s *Service) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := &obsMetrics{
		appendLatency:     reg.Histogram("srss.append_latency_ns"),
		readLatency:       reg.Histogram("srss.read_latency_ns"),
		crossLayerOps:     reg.Counter("srss.cross_layer_ops"),
		computeOps:        reg.Counter("srss.compute_tier_ops"),
		seals:             reg.Counter("srss.seals"),
		tornAppends:       reg.Counter("srss.torn_appends"),
		repairs:           reg.Counter("srss.repairs"),
		placementFailures: reg.Counter("srss.placement_failures"),
	}
	s.obsM.CompareAndSwap(nil, m)
	reg.GaugeFunc("srss.replica_bytes", s.replicaBytes)
}

// replicaBytes is the chunk capacity of every PLog not deleted: the log,
// checkpoint images and metadata, once, whatever the replication factor.
func (s *Service) replicaBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, p := range s.plogs {
		n += int64(len(p.chunkList())) * int64(s.cfg.ChunkSize)
	}
	return n
}

// Node is one simulated compute or storage node.
type Node struct {
	ID     int
	Tier   Tier
	failed atomic.Bool
}

// Fail marks the node failed: subsequent replicated writes touching it seal
// their PLogs.
func (n *Node) Fail() { n.failed.Store(true) }

// Heal clears the failed state.
func (n *Node) Heal() { n.failed.Store(false) }

// Failed reports whether the node is marked failed.
func (n *Node) Failed() bool { return n.failed.Load() }

// New builds a service from cfg.
func New(cfg Config) *Service {
	cfg.fill()
	s := &Service{
		cfg:       cfg,
		plogs:     make(map[PLogID]*PLog),
		wellKnown: make(map[string]PLogID),
	}
	for i := 0; i < cfg.ComputeNodes; i++ {
		s.computeNodes = append(s.computeNodes, &Node{ID: i, Tier: TierCompute})
	}
	for i := 0; i < cfg.StorageNodes; i++ {
		s.storageNodes = append(s.storageNodes, &Node{ID: i, Tier: TierStorage})
	}
	return s
}

// Stats exposes the service counters.
func (s *Service) Stats() *Stats { return &s.stats }

// SetWellKnown registers a named bootstrap PLog ID with the management
// nodes.
func (s *Service) SetWellKnown(name string, id PLogID) {
	s.wkMu.Lock()
	s.wellKnown[name] = id
	s.wkMu.Unlock()
}

// WellKnown resolves a named bootstrap PLog ID.
func (s *Service) WellKnown(name string) (PLogID, bool) {
	s.wkMu.RLock()
	defer s.wkMu.RUnlock()
	id, ok := s.wellKnown[name]
	return id, ok
}

// Model exposes the latency model so co-simulated devices (e.g. the
// baseline engine's buffer pool) charge consistent costs.
func (s *Service) Model() *delay.Model { return s.cfg.Model }

// Waiter exposes the latency sink.
func (s *Service) Waiter() delay.Waiter { return s.cfg.Waiter }

// Chaos exposes the fault-injection engine (nil when injection is off).
// The wal and core layers share it so one seed drives the whole stack.
func (s *Service) Chaos() *chaos.Engine { return s.cfg.Chaos }

// ComputeNode returns compute node i (for failure injection in tests).
func (s *Service) ComputeNode(i int) *Node { return s.computeNodes[i] }

// MaxPLogSize reports the configured PLog capacity.
func (s *Service) MaxPLogSize() int64 { return s.cfg.MaxPLogSize }

func (s *Service) newID(tier Tier) PLogID {
	n := s.nextID.Add(1)
	var id PLogID
	id[0] = 'P'
	id[1] = 'L'
	id[2] = byte(tier) + 1
	for i := 0; i < 8; i++ {
		id[8+i] = byte(n >> (8 * (7 - i)))
	}
	return id
}

// pickNodes selects replica hosts for a new PLog, skipping failed nodes.
func (s *Service) pickNodes(tier Tier) ([]*Node, error) {
	var pool []*Node
	var rr *atomic.Uint64
	if tier == TierCompute {
		pool, rr = s.computeNodes, &s.rrCompute
	} else {
		pool, rr = s.storageNodes, &s.rrStorage
	}
	start := int(rr.Add(1))
	var picked []*Node
	for i := 0; i < len(pool) && len(picked) < s.cfg.Replicas; i++ {
		n := pool[(start+i)%len(pool)]
		if !n.Failed() {
			picked = append(picked, n)
		}
	}
	if len(picked) < s.cfg.Replicas {
		s.stats.PlacementFailures.Add(1)
		if om := s.obsM.Load(); om != nil {
			om.placementFailures.Inc()
		}
		return nil, &PlacementError{Tier: tier, Need: s.cfg.Replicas, Have: len(picked)}
	}
	return picked, nil
}

// Create allocates a new PLog in the given tier and returns it open.
func (s *Service) Create(tier Tier) (*PLog, error) {
	nodes, err := s.pickNodes(tier)
	if err != nil {
		return nil, err
	}
	p := &PLog{
		id:   s.newID(tier),
		tier: tier,
		svc:  s,
	}
	p.setNodes(nodes)
	s.mu.Lock()
	s.plogs[p.id] = p
	s.mu.Unlock()
	return p, nil
}

// ImportPLog creates (or reopens) a PLog under a caller-supplied ID. Log
// shipping uses it: a replica process mirrors the primary's PLogs into its
// own SRSS deployment under the same identities, so the WAL directory and
// manifest it ships refer to valid local PLogs. Idempotent: importing an
// existing ID returns the existing PLog. The internal ID counter is bumped
// past the imported counter so locally-created PLogs never collide with
// later imports.
func (s *Service) ImportPLog(id PLogID, tier Tier) (*PLog, error) {
	s.mu.Lock()
	if p, ok := s.plogs[id]; ok {
		s.mu.Unlock()
		if p.deleted.Load() {
			return nil, fmt.Errorf("%w: %v", ErrDeleted, id)
		}
		return p, nil
	}
	s.mu.Unlock()
	nodes, err := s.pickNodes(tier)
	if err != nil {
		return nil, err
	}
	p := &PLog{id: id, tier: tier, svc: s}
	p.setNodes(nodes)
	s.mu.Lock()
	if existing, ok := s.plogs[id]; ok { // lost a race with another import
		s.mu.Unlock()
		return existing, nil
	}
	s.plogs[id] = p
	s.mu.Unlock()
	// Keep newID ahead of the imported counter (bytes 8..15 of the ID).
	var ctr uint64
	for i := 0; i < 8; i++ {
		ctr = ctr<<8 | uint64(id[8+i])
	}
	for {
		cur := s.nextID.Load()
		if cur >= ctr || s.nextID.CompareAndSwap(cur, ctr) {
			break
		}
	}
	return p, nil
}

// Open returns an existing PLog by ID.
func (s *Service) Open(id PLogID) (*PLog, error) {
	s.mu.RLock()
	p, ok := s.plogs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if p.deleted.Load() {
		return nil, fmt.Errorf("%w: %v", ErrDeleted, id)
	}
	return p, nil
}

// Delete removes a PLog and frees its replicas. Space reclaimed this way is
// how log compaction discards dead segments.
func (s *Service) Delete(id PLogID) error {
	s.mu.Lock()
	p, ok := s.plogs[id]
	if ok {
		delete(s.plogs, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	p.deleted.Store(true)
	return nil
}

// List returns the IDs of all live PLogs in a tier (directory bootstrap and
// tests).
func (s *Service) List(tier Tier) []PLogID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ids []PLogID
	for id, p := range s.plogs {
		if p.tier == tier && !p.deleted.Load() {
			ids = append(ids, id)
		}
	}
	return ids
}

// chargeAppend applies the tier-appropriate append latency for n bytes.
func (s *Service) chargeAppend(tier Tier, n int) {
	m := s.cfg.Model
	var d time.Duration
	if tier == TierCompute {
		// Local PM persist plus parallel RDMA replication to the two
		// peers: the synchronous wait is the slower of the two.
		d = m.ComputePMAppend + m.IntraComputeRTT
		s.stats.ComputeTierOps.Add(1)
	} else {
		// Cross the compute->storage network, then the primary
		// replicates inside the storage tier and persists to SSD.
		d = m.CrossLayerRTT + m.IntraStorageRTT + m.SSDWrite
		s.stats.CrossLayerOps.Add(1)
	}
	d += time.Duration(n) * m.PerByteAppend
	if om := s.obsM.Load(); om != nil {
		om.appendLatency.Record(int64(d))
		if tier == TierCompute {
			om.computeOps.Inc()
		} else {
			om.crossLayerOps.Inc()
		}
	}
	s.cfg.Waiter.Wait(d)
}

// chargeRead applies the tier-appropriate read latency.
func (s *Service) chargeRead(tier Tier, n int) {
	m := s.cfg.Model
	var d time.Duration
	if tier == TierCompute {
		d = m.PMRead
		s.stats.ComputeTierOps.Add(1)
	} else {
		d = m.CrossLayerRTT + m.SSDRead
		s.stats.CrossLayerOps.Add(1)
	}
	if om := s.obsM.Load(); om != nil {
		om.readLatency.Record(int64(d))
		if tier == TierCompute {
			om.computeOps.Inc()
		} else {
			om.crossLayerOps.Inc()
		}
	}
	s.cfg.Waiter.Wait(d)
	_ = n
}

// replica is one node's copy of a PLog: the prefix of the PLog's chunk list
// the node holds. Extents differ from the PLog size (and from each other)
// only after a torn write.
type replica struct {
	node *Node
	ext  atomic.Int64
}

func (r *replica) extent() int64 { return r.ext.Load() }

// PLog is one replicated persistent log.
type PLog struct {
	id   PLogID
	tier Tier
	svc  *Service

	mu      sync.Mutex // serializes appends and repair (SRSS appends are atomic)
	size    atomic.Int64
	sealed  atomic.Bool
	deleted atomic.Bool
	// torn marks a chaos-injected torn write: replica extents (and the
	// bytes past the last acked append) may diverge; readers must route
	// by extent and recovery must truncate the invalid tail.
	torn atomic.Bool
	// reps is the current replica set, an immutable slice swapped
	// atomically so readers never lock; repair replaces failed-node
	// replicas under p.mu (serialized against appends).
	reps atomic.Pointer[[]*replica]
	// chunks is the one copy of every replica's bytes: ChunkSize-byte
	// chunks that never move, so a slice into one stays valid for the
	// PLog's life. Appends write it under p.mu and publish a new list
	// when they add a chunk, before any extent covers its bytes.
	chunks atomic.Pointer[[][]byte]
}

// setNodes gives p one empty replica on each node.
func (p *PLog) setNodes(nodes []*Node) {
	reps := make([]*replica, len(nodes))
	for i, n := range nodes {
		reps[i] = &replica{node: n}
	}
	p.reps.Store(&reps)
}

// replicaList returns the current replica set (immutable snapshot).
func (p *PLog) replicaList() []*replica { return *p.reps.Load() }

// chunkList returns the chunks written so far (immutable snapshot).
func (p *PLog) chunkList() [][]byte {
	if cs := p.chunks.Load(); cs != nil {
		return *cs
	}
	return nil
}

// write copies data into the chunk list at off, the end of the longest
// extent. Caller holds p.mu.
func (p *PLog) write(off int64, data []byte) {
	cs := int64(p.svc.cfg.ChunkSize)
	list := p.chunkList()
	for len(data) > 0 {
		ci := off / cs
		if ci == int64(len(list)) {
			// Readers hold the old list, which this append never writes
			// inside: it only adds past the old list's length.
			next := append(list, make([]byte, cs))
			p.chunks.Store(&next)
			list = next
		}
		n := copy(list[ci][off%cs:], data)
		data = data[n:]
		off += int64(n)
	}
}

// readAt copies len(b) bytes at off into b. The caller checked that a
// replica's extent covers the range.
func (p *PLog) readAt(b []byte, off int64) {
	cs := int64(p.svc.cfg.ChunkSize)
	list := p.chunkList()
	for len(b) > 0 {
		n := copy(b, list[off/cs][off%cs:])
		b = b[n:]
		off += int64(n)
	}
}

// slice returns a zero-copy view of [off, off+n) when it fits in one chunk,
// else a copy. Safe because appended bytes are immutable.
func (p *PLog) slice(off int64, n int) []byte {
	cs := int64(p.svc.cfg.ChunkSize)
	if co := off % cs; co+int64(n) <= cs {
		return p.chunkList()[off/cs][co : co+int64(n) : co+int64(n)]
	}
	out := make([]byte, n)
	p.readAt(out, off)
	return out
}

// ID returns the PLog's identifier.
func (p *PLog) ID() PLogID { return p.id }

// Tier returns the tier the PLog lives in.
func (p *PLog) Tier() Tier { return p.tier }

// Size returns the durable length in bytes.
func (p *PLog) Size() int64 { return p.size.Load() }

// Sealed reports whether the PLog has been permanently sealed.
func (p *PLog) Sealed() bool { return p.sealed.Load() }

// Seal permanently closes the PLog to writes. Reads remain valid.
func (p *PLog) Seal() {
	if !p.sealed.Swap(true) {
		p.svc.stats.Seals.Add(1)
		if om := p.svc.obsM.Load(); om != nil {
			om.seals.Inc()
		}
	}
}

// Append atomically appends data to the PLog, replicating it to all replica
// nodes before returning the offset at which the data landed.
//
// If any replica node has failed, the PLog is sealed and ErrSealed is
// returned; per the SRSS contract the caller must create a fresh PLog and
// retry the append there.
func (p *PLog) Append(data []byte) (int64, error) {
	off, _, err := p.AppendTimed(data)
	return off, err
}

// AppendTimed is Append, additionally reporting the wall-clock nanoseconds
// spent in the replication fan-out (the modeled per-tier latency charge
// plus the one copy every replica's extent covers). Tracing uses this to carve the replication
// cost out of the enclosing group-commit flush span.
func (p *PLog) AppendTimed(data []byte) (off int64, replicateNS int64, err error) {
	if len(data) == 0 {
		return p.size.Load(), 0, nil
	}
	ch := p.svc.cfg.Chaos
	if err := ch.Check(SiteAppendBefore); err != nil {
		// Crash before replication: the append is lost entirely.
		return 0, 0, fmt.Errorf("append to %v: %w", p.id, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.deleted.Load() {
		return 0, 0, fmt.Errorf("%w: %v", ErrDeleted, p.id)
	}
	if p.sealed.Load() {
		return 0, 0, fmt.Errorf("%w: %v", ErrSealed, p.id)
	}
	off = p.size.Load()
	if off+int64(len(data)) > p.svc.cfg.MaxPLogSize {
		return 0, 0, fmt.Errorf("%w: %v (size %d + %d > %d)",
			ErrFull, p.id, off, len(data), p.svc.cfg.MaxPLogSize)
	}
	reps := p.replicaList()
	for _, r := range reps {
		if r.node.Failed() {
			p.sealTornLocked(false)
			return 0, 0, fmt.Errorf("%w: %v (replica node %d failed mid-write)",
				ErrSealed, p.id, r.node.ID)
		}
	}
	if cuts, torn := ch.TearPlan(SiteAppendTear, len(data), len(reps)); torn {
		// Torn replicated write: the writer died mid-replication. Each
		// replica keeps its own prefix; the physical extent recovery will
		// scan is the longest prefix, and it was never acked.
		ext := 0
		for _, c := range cuts {
			ext = max(ext, c)
		}
		p.write(off, data[:ext])
		for i, r := range reps {
			r.ext.Store(off + int64(cuts[i]))
		}
		p.sealTornLocked(true)
		p.size.Store(off + int64(ext))
		p.svc.stats.TornAppends.Add(1)
		if om := p.svc.obsM.Load(); om != nil {
			om.tornAppends.Inc()
		}
		return 0, 0, fmt.Errorf("torn append to %v (%d/%d bytes replicated): %w",
			p.id, ext, len(data), chaos.ErrCrashed)
	}
	replStart := time.Now()
	p.svc.chargeAppend(p.tier, len(data))
	p.write(off, data)
	end := off + int64(len(data))
	for _, r := range reps {
		r.ext.Store(end)
	}
	replicateNS = int64(time.Since(replStart))
	p.size.Store(end)
	p.svc.stats.Appends.Add(1)
	p.svc.stats.AppendBytes.Add(int64(len(data)))
	if err := ch.Check(SiteAppendAfter); err != nil {
		// Crash after replication: the bytes are durable on every
		// replica (recovery will see them) but the ack never reaches the
		// caller -- the classic ambiguous-commit window.
		return 0, 0, fmt.Errorf("append to %v durable but unacked: %w", p.id, err)
	}
	return off, replicateNS, nil
}

// sealTornLocked seals the PLog (and optionally marks it torn) under p.mu,
// keeping the seal stats in one place.
func (p *PLog) sealTornLocked(torn bool) {
	if torn {
		p.torn.Store(true)
	}
	if !p.sealed.Swap(true) {
		p.svc.stats.Seals.Add(1)
		if om := p.svc.obsM.Load(); om != nil {
			om.seals.Inc()
		}
	}
}

// Torn reports whether a torn write was injected into this PLog: replica
// contents past the last acked append may diverge.
func (p *PLog) Torn() bool { return p.torn.Load() }

// SealTorn seals the PLog and marks it torn. Log shipping uses it to mirror
// a primary PLog's torn state onto the follower's local copy, so the
// follower's tail classification truncates at the same offset recovery
// would.
func (p *PLog) SealTorn() {
	p.mu.Lock()
	p.sealTornLocked(true)
	p.mu.Unlock()
}

// replicaFor returns a replica whose extent covers [0, end), preferring
// healthy nodes; if none covers it (possible only on torn PLogs), the
// longest replica wins. Data outlives node liveness in the simulation, so
// an all-failed replica set still serves reads.
func (p *PLog) replicaFor(end int64) *replica {
	reps := p.replicaList()
	var anyCovering, longest *replica
	var longestExt int64 = -1
	for _, r := range reps {
		ext := r.extent()
		if ext > longestExt {
			longest, longestExt = r, ext
		}
		if ext < end {
			continue
		}
		if !r.node.Failed() {
			return r
		}
		if anyCovering == nil {
			anyCovering = r
		}
	}
	if anyCovering != nil {
		return anyCovering
	}
	return longest
}

// ReadAt copies len(b) bytes from offset off into b, charging read latency.
// Reads can be served by any replica (routed to a healthy one).
func (p *PLog) ReadAt(b []byte, off int64) (int, error) {
	if err := p.svc.cfg.Chaos.Check(SiteRead); err != nil {
		return 0, fmt.Errorf("read of %v: %w", p.id, err)
	}
	if p.deleted.Load() {
		return 0, fmt.Errorf("%w: %v", ErrDeleted, p.id)
	}
	if off < 0 || off+int64(len(b)) > p.size.Load() {
		return 0, fmt.Errorf("%w: [%d,+%d) of %d", ErrOutOfRange, off, len(b), p.size.Load())
	}
	p.svc.chargeRead(p.tier, len(b))
	r := p.replicaFor(off + int64(len(b)))
	if r.extent() < off+int64(len(b)) {
		// Only reachable on a torn PLog: no replica covers the range.
		return 0, fmt.Errorf("%w: [%d,+%d) torn at %d", ErrOutOfRange, off, len(b), r.extent())
	}
	p.readAt(b, off)
	p.svc.stats.Reads.Add(1)
	p.svc.stats.ReadBytes.Add(int64(len(b)))
	return len(b), nil
}

// Mmap returns a read-only view of the PLog, mirroring the SRSS kernel
// module's mmap support (Section 2.3). Views are cheap; each access charges
// the tier read latency once per "page fault"-sized access.
func (p *PLog) Mmap() *View {
	return &View{plog: p}
}

// View is a read-only mmap-style window into a PLog.
type View struct {
	plog *PLog
}

// Len returns the durable length visible through the view.
func (v *View) Len() int64 { return v.plog.size.Load() }

// PLog returns the underlying PLog.
func (v *View) PLog() *PLog { return v.plog }

// At returns n bytes at offset off. The returned slice is valid forever
// (append-only storage) and is zero-copy when the range does not straddle an
// internal chunk boundary.
func (v *View) At(off int64, n int) ([]byte, error) {
	p := v.plog
	if err := p.svc.cfg.Chaos.Check(SiteRead); err != nil {
		return nil, fmt.Errorf("view read of %v: %w", p.id, err)
	}
	if p.deleted.Load() {
		return nil, fmt.Errorf("%w: %v", ErrDeleted, p.id)
	}
	if off < 0 || off+int64(n) > p.size.Load() {
		return nil, fmt.Errorf("%w: [%d,+%d) of %d", ErrOutOfRange, off, n, p.size.Load())
	}
	p.svc.chargeRead(p.tier, n)
	r := p.replicaFor(off + int64(n))
	if r.extent() < off+int64(n) {
		return nil, fmt.Errorf("%w: [%d,+%d) torn at %d", ErrOutOfRange, off, n, r.extent())
	}
	p.svc.stats.Reads.Add(1)
	p.svc.stats.ReadBytes.Add(int64(n))
	return p.slice(off, n), nil
}

// Window returns the durable bytes from off to the end of the chunk that
// holds off: the longest read that is always zero-copy. A sequential reader
// takes one window per chunk -- one chaos check, one latency charge, one
// count in Stats.Reads -- and decodes in place, where At per item would pay
// all three per item.
func (v *View) Window(off int64) ([]byte, error) {
	size := v.plog.size.Load()
	if off < 0 || off >= size {
		return nil, fmt.Errorf("%w: window at %d of %d", ErrOutOfRange, off, size)
	}
	cs := int64(v.plog.svc.cfg.ChunkSize)
	return v.At(off, int(min(size, (off/cs+1)*cs)-off))
}

// Appended is the writer's look at what it has appended: the durable bytes
// from off to the end of the chunk that holds off, zero-copy like a Window,
// or nil when off is not inside the durable extent. The bytes are already in
// the caller's memory -- a compute-tier PLog is the local persistent memory
// the append just filled -- so this is not a storage read: it draws no chaos
// decision, charges no latency and is not counted in Stats.Reads.
func (p *PLog) Appended(off int64) []byte {
	size := p.size.Load()
	if off < 0 || off >= size || p.deleted.Load() {
		return nil
	}
	cs := int64(p.svc.cfg.ChunkSize)
	end := min(size, (off/cs+1)*cs)
	if p.replicaFor(end).extent() < end {
		return nil // torn: no replica holds the whole range
	}
	return p.slice(off, int(end-off))
}

// replicasEqual verifies that all replicas hold the same bytes over the
// full durable extent; used by invariant tests. Torn PLogs fail this check
// by design (replica extents diverge past the last acked append).
func (p *PLog) replicasEqual() bool {
	return p.ReplicasConsistentFrom(0)
}

// ReplicasConsistentFrom reports whether every replica agrees byte-for-byte
// from off to the physical end of the PLog. Replicas hold prefixes of one
// chunk list, so they agree from any offset exactly when their extents are
// equal. A torn write leaves unequal extents, so recovery calls this to
// distinguish "record half-written then crashed" (short replicas =>
// truncate) from genuine corruption.
func (p *PLog) ReplicasConsistentFrom(off int64) bool {
	reps := p.replicaList()
	for _, r := range reps[1:] {
		if r.extent() != reps[0].extent() {
			return false
		}
	}
	return true
}

// Destage copies a compute-tier PLog into a new storage-tier PLog and
// returns it. HiEngine destages the log tail to the storage tier in the
// background for archival and cross-AZ durability (Section 3.1).
func (s *Service) Destage(p *PLog) (*PLog, error) {
	if p.tier != TierCompute {
		return nil, fmt.Errorf("srss: destage of %v plog", p.tier)
	}
	dst, err := s.Create(TierStorage)
	if err != nil {
		return nil, err
	}
	const batch = 1 << 20
	buf := make([]byte, batch)
	size := p.Size()
	for off := int64(0); off < size; {
		if off > 0 {
			if err := s.cfg.Chaos.Check(SiteDestageMid); err != nil {
				// Crash between copy batches: dst is a partial,
				// unregistered storage PLog the directory never records.
				return nil, fmt.Errorf("destage of %v at %d/%d: %w", p.id, off, size, err)
			}
		}
		n := batch
		if int64(n) > size-off {
			n = int(size - off)
		}
		if _, err := p.ReadAt(buf[:n], off); err != nil {
			return nil, err
		}
		if _, err := dst.Append(buf[:n]); err != nil {
			return nil, err
		}
		off += int64(n)
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Replica repair
//
// When a replica node fails, the PLog seals and the writer moves on to a
// fresh PLog -- but the sealed PLog keeps serving reads with a degraded
// replica set. RepairOnce restores full redundancy: for each PLog with a
// failed replica node it gives a healthy spare node the longest replica's
// extent and swaps the new replica into the set. The bytes are the PLog's
// one chunk list, so nothing is copied; the re-replication is charged as an
// append of the extent.
// ---------------------------------------------------------------------------

// degraded reports whether any replica sits on a failed node.
func (p *PLog) degraded() bool {
	for _, r := range p.replicaList() {
		if r.node.Failed() {
			return true
		}
	}
	return false
}

// spareNodes returns healthy nodes in p's tier not already hosting a
// replica of p.
func (s *Service) spareNodes(p *PLog) []*Node {
	pool := s.computeNodes
	if p.tier == TierStorage {
		pool = s.storageNodes
	}
	hosting := make(map[int]bool)
	for _, r := range p.replicaList() {
		hosting[r.node.ID] = true
	}
	var spares []*Node
	for _, n := range pool {
		if !n.Failed() && !hosting[n.ID] {
			spares = append(spares, n)
		}
	}
	return spares
}

// repairPLog re-replicates p onto healthy spare nodes until every replica
// is healthy (or spares run out). It returns the number of replicas
// replaced. Runs under p.mu so repair serializes with appends; readers keep
// going lock-free against the old immutable replica slice until the swap.
func (s *Service) repairPLog(p *PLog) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.deleted.Load() {
		return 0, nil
	}
	old := p.replicaList()
	// Source: the longest replica. After a torn write the longest prefix is
	// the physical extent recovery scans, so repair must preserve it; node
	// failure does not destroy data in the simulation (or in SRSS, where
	// "failed" means unreachable, not erased), so reading from a failed
	// node's replica is the degraded-but-correct path when it is longest.
	var src *replica
	for _, r := range old {
		if src == nil || r.extent() > src.extent() {
			src = r
		}
	}
	if src == nil {
		return 0, nil
	}
	ext := src.extent()
	spares := s.spareNodes(p)
	replaced := 0
	next := make([]*replica, len(old))
	copy(next, old)
	for i, r := range next {
		if !r.node.Failed() {
			continue
		}
		if len(spares) == 0 {
			break
		}
		node := spares[0]
		spares = spares[1:]
		nr := &replica{node: node}
		nr.ext.Store(ext)
		s.chargeAppend(p.tier, int(ext))
		next[i] = nr
		replaced++
		s.stats.Repairs.Add(1)
		if om := s.obsM.Load(); om != nil {
			om.repairs.Inc()
		}
	}
	if replaced == 0 {
		if len(s.spareNodes(p)) == 0 {
			return 0, &PlacementError{Tier: p.tier, Need: s.cfg.Replicas, Have: len(spares)}
		}
		return 0, nil
	}
	p.reps.Store(&next)
	healthy := true
	for _, r := range next {
		if r.node.Failed() {
			healthy = false
			break
		}
	}
	if healthy {
		p.svc.stats.RepairedPLogs.Add(1)
	}
	return replaced, nil
}

// RepairOnce sweeps every live PLog and re-replicates degraded ones onto
// healthy spares. It returns the number of replicas replaced. PLogs that
// cannot be repaired (no spares) are skipped, not failed: the sweep is
// best-effort and the next pass retries.
func (s *Service) RepairOnce() (int, error) {
	s.mu.RLock()
	var degraded []*PLog
	for _, p := range s.plogs {
		if !p.deleted.Load() && p.degraded() {
			degraded = append(degraded, p)
		}
	}
	s.mu.RUnlock()
	total := 0
	var firstErr error
	for _, p := range degraded {
		n, err := s.repairPLog(p)
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}
