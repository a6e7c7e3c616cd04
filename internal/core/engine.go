package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hiengine/internal/art"
	"hiengine/internal/chaos"
	"hiengine/internal/clock"
	"hiengine/internal/delay"
	"hiengine/internal/index"
	"hiengine/internal/obs"
	"hiengine/internal/pia"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// Chaos injection sites owned by this package. The engine inherits the
// fault schedule from its SRSS service (srss.Config.Chaos).
const (
	// SiteCommitBegin fires at the head of the commit pipeline, before the
	// CSN is acquired or any version is stamped: a crash here aborts the
	// transaction cleanly -- nothing became visible and nothing was logged.
	SiteCommitBegin = "core.commit.begin"
	// SiteCommitDrawn fires between a commit's CSN draw and the hand-off of
	// its log buffer, once its versions are stamped, under its log stream's
	// enqueue lock: a Delay stalls the stream, and commits with later CSNs
	// on it wait behind the delayed one.
	SiteCommitDrawn = "core.commit.drawn"
	// SiteCheckpointMid fires between checkpoint-image flushes: a crash
	// leaves a partial, unregistered checkpoint PLog; the previous
	// checkpoint (if any) remains the recovery anchor.
	SiteCheckpointMid = "core.checkpoint.mid"
)

func init() {
	chaos.RegisterSite(SiteCommitBegin, "crash at commit start: clean abort, nothing visible or logged")
	chaos.RegisterSite(SiteCommitDrawn, "delay between CSN draw and log enqueue: stalls the commit's log stream")
	chaos.RegisterSite(SiteCheckpointMid, "crash between checkpoint flushes: partial unregistered image")
}

// Errors surfaced by the engine.
var (
	// ErrConflict is a write-write conflict (first-committer-wins under
	// snapshot isolation); the transaction has been aborted.
	ErrConflict = errors.New("core: write-write conflict")
	// ErrDuplicateKey is a unique-index violation.
	ErrDuplicateKey = errors.New("core: duplicate key")
	// ErrNotFound means no visible version of the record exists.
	ErrNotFound = errors.New("core: record not found")
	// ErrTxnDone is returned for operations on a finished transaction.
	ErrTxnDone = errors.New("core: transaction already finished")
	// ErrWorkerBusy means the worker slot already has an active txn.
	ErrWorkerBusy = errors.New("core: worker slot busy")
	// ErrNoTable is returned for unknown table names/IDs.
	ErrNoTable = errors.New("core: no such table")
	// ErrClosed is returned after Engine.Close.
	ErrClosed = errors.New("core: engine closed")
	// ErrDurabilityLost is returned by Begin and Commit after a commit's
	// log append failed durability: the in-memory state may already have
	// diverged from what any recovery can reconstruct, so the engine
	// fail-stops rather than silently acknowledging more transactions.
	ErrDurabilityLost = errors.New("core: durability failure; engine is fail-stopped")
)

// Config configures an Engine.
type Config struct {
	// Name identifies this engine instance in the SRSS management-node
	// registry (well-known bootstrap location). Default "hiengine".
	Name string
	// Service is the SRSS deployment; one is created (with Model) if nil.
	Service *srss.Service
	// Model is the latency model used when Service is nil.
	Model *delay.Model
	// Workers is the number of session slots (paper: transaction worker
	// threads bound to cores). Default 8.
	Workers int
	// LogStreams is the number of WAL streams (default = Workers).
	LogStreams int
	// SegmentSize for log segments (default 8 MiB).
	SegmentSize int64
	// GroupCommitBatch bounds commits per group append (default 64; 1
	// disables group commit).
	GroupCommitBatch int
	// LogTier places the log (default TierCompute = compute-side
	// persistence; TierStorage models a storage-centric deployment).
	LogTier srss.Tier
	// GCEveryNCommits interleaves incremental garbage collection with
	// forward processing every N commits per worker (default 64; a
	// negative value disables automatic GC).
	GCEveryNCommits int
	// Obs is the observability registry the engine (and the WAL and SRSS
	// layers under it) records into. A fresh registry named after the
	// engine is created when nil.
	Obs *obs.Registry
}

func (c *Config) fill() {
	if c.Name == "" {
		c.Name = "hiengine"
	}
	if c.Service == nil {
		if c.Model == nil {
			c.Model = delay.Zero()
		}
		c.Service = srss.New(srss.Config{Model: c.Model})
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.LogStreams <= 0 {
		c.LogStreams = c.Workers
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 8 << 20
	}
	if c.GroupCommitBatch <= 0 {
		c.GroupCommitBatch = 64
	}
	if c.GCEveryNCommits == 0 {
		c.GCEveryNCommits = 64
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry(c.Name)
	}
}

// Stats counts engine activity.
type Stats struct {
	Commits           atomic.Int64
	Aborts            atomic.Int64
	Conflicts         atomic.Int64
	ReclaimedVersions atomic.Int64
	Checkpoints       atomic.Int64
	Compactions       atomic.Int64
}

// workerSlot is per-worker state: the active transaction's begin timestamp
// (the worker's readCSN of Section 4.4), the garbage-collection bag, and
// what the slot's transactions reuse one after another instead of
// allocating.
type workerSlot struct {
	activeBegin atomic.Uint64 // 0 = idle
	lastRead    atomic.Uint64 // last refreshed readCSN

	mu            sync.Mutex
	retired       []retiredVersion
	commitCounter int
	// free holds write sets whose log records are durable (or were rolled
	// back), ready for the slot's next writing transaction.
	free []*writeSet

	// Scratch of the slot's active transaction (a slot runs one at a time,
	// on one goroutine): view and view2 walk encoded rows -- a row read, a
	// write's old and new payloads -- kbuf and kbuf2 hold the index keys
	// derived from them, and rowbuf an insert's row until its record has a
	// RID to be reserved under. hint remembers the index nodes the slot's
	// inserts last filled, for its uniqueness checks and inserts.
	view, view2 RowView
	kbuf, kbuf2 []byte
	rowbuf      []byte
	hint        art.Hint
	// What the slot's last committing transaction filled of its log buffer:
	// the next one's buffer is allocated that size. The active
	// transaction's, like the scratch.
	lastLogBytes int
	// Slots sit side by side in Engine.workers. Whole cache lines keep one
	// slot's writes off the line of its neighbour's activeBegin and mu
	// (TestWorkerSlotIsWholeCacheLines).
	_ [56]byte
}

// Engine is a HiEngine instance.
type Engine struct {
	cfg Config
	svc *srss.Service
	log *wal.Manager
	// clk is the CSN source: a local counter, the standalone mode of
	// Section 5.3 (recovery advances it past replayed CSNs).
	clk *clock.Counter

	mu         sync.RWMutex
	tables     map[string]*Table
	tablesByID map[uint32]*Table
	nextTable  uint32

	manifestMu sync.Mutex
	manifest   *srss.PLog
	// lastCkptPayload caches the newest checkpoint manifest record so a
	// manifest migration can reproduce it.
	lastCkptPayload []byte
	// lastShardPayload caches the newest shard-map manifest record (opaque
	// to core; internal/shard owns the encoding) for the same reason.
	lastShardPayload []byte

	tidSeq atomic.Uint64
	status *statusMap

	// pend2pc tracks global (2PC) transactions prepared on this node, keyed
	// by gtid. Undecided entries are the in-doubt list; decided entries are
	// retained so the node keeps answering TxnStatus across restarts (their
	// decision segments are excluded from checkpoint fences).
	pendMu  sync.Mutex
	pend2pc map[string]*pend2pcEntry

	workers []workerSlot

	ckptMu sync.Mutex // serializes checkpoint/compaction
	// compactHeld stops compaction (HoldCompaction); guarded by ckptMu.
	compactHeld bool
	// lastImage is the newest checkpoint image, which the next checkpoint
	// supersedes and deletes; guarded by ckptMu.
	lastImage srss.PLogID
	// dead is the dead-log ledger and its maintenance goroutine: nil on an
	// engine that is read-only or runs no GC.
	dead *deadLog
	// lastCkpt tracks the newest checkpoint CSN (diagnostics).
	lastCkpt atomic.Uint64

	// durabilityLost latches the fail-stop state: once any commit's log
	// append fails durability, every subsequent Begin/Commit returns
	// ErrDurabilityLost (the sticky durability-error contract; see
	// DESIGN.md).
	durabilityLost atomic.Bool

	// obs is the unified metrics registry; the handles below are cached
	// so hot paths record without map lookups.
	obs             *obs.Registry
	mCommits        *obs.Counter
	mAborts         *obs.Counter
	mConflicts      *obs.Counter
	mDurabilityFail *obs.Counter
	mReclaimed      *obs.Counter
	mCheckpoints    *obs.Counter
	mGCPause        *obs.Histogram // nanoseconds per GC drain
	mCheckpointDur  *obs.Histogram // nanoseconds per checkpoint
	// mCheckpointImage is the newest checkpoint image's size in bytes (one
	// replica's), written or loaded: a line of the heap ledger, as SRSS
	// holds it three times.
	mCheckpointImage *obs.Gauge
	// Log compaction: passes completed, and the bytes they rewrote.
	mCompactions    *obs.Counter
	mCompactedBytes *obs.Counter
	// The heap ledger's payload lines: row bytes held a second time, in
	// private buffers beside their log records (commits in flight, records
	// that straddle a storage chunk, in-doubt writes rebuilt by recovery),
	// and how many payloads have been swung onto the log instead.
	mPrivateBytes *obs.Gauge
	mSwings       *obs.Counter

	stats  Stats
	closed atomic.Bool

	// readOnly marks replica engines: write operations are rejected, and
	// index scans always verify entry keys (a follower's entries are added
	// record by record from the log, which cannot always say which entry a
	// record made stale). Atomic because promotion clears it while reads are
	// in flight.
	readOnly atomic.Bool

	// epoch is the primary epoch of this node's write lineage, persisted in
	// the manifest and bumped on every promotion. fencedBy latches the
	// highest epoch observed from another node; once it exceeds epoch the
	// node is fenced -- demoted to read-only, refusing writes and repl
	// fetches with ErrStaleEpoch -- so a revived old primary can never
	// accept acked writes the new lineage would lose.
	epoch    atomic.Uint64
	fencedBy atomic.Uint64
}

// Open creates a fresh engine instance.
func Open(cfg Config) (*Engine, error) {
	cfg.fill()
	e := newEngine(cfg)
	manifest, err := e.svc.Create(srss.TierCompute)
	if err != nil {
		return nil, err
	}
	e.manifest = manifest
	e.svc.SetWellKnown(cfg.Name, manifest.ID())
	log, err := wal.Open(e.walConfig())
	if err != nil {
		return nil, err
	}
	e.log = log
	metaID := log.Directory().MetaID()
	if err := e.appendManifest(manifestWAL, metaID[:]); err != nil {
		return nil, err
	}
	// A fresh primary starts its write lineage at epoch 1.
	e.epoch.Store(1)
	if err := e.appendManifest(manifestEpoch, binary.AppendUvarint(nil, 1)); err != nil {
		return nil, err
	}
	if cfg.GCEveryNCommits > 0 {
		e.startMaintenance(&deadLog{})
	}
	return e, nil
}

// newEngine is an engine with an empty catalog and no storage yet, for Open
// and Recover to attach a manifest and a log to. cfg is filled.
func newEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:        cfg,
		svc:        cfg.Service,
		clk:        clock.NewCounter(1),
		tables:     make(map[string]*Table),
		tablesByID: make(map[uint32]*Table),
		status:     newStatusMap(),
		workers:    make([]workerSlot, cfg.Workers),
		pend2pc:    make(map[string]*pend2pcEntry),
	}
	e.initObs()
	return e
}

// walConfig is the configuration of e's log.
func (e *Engine) walConfig() wal.Config {
	return wal.Config{
		Service:     e.svc,
		Tier:        e.cfg.LogTier,
		Streams:     e.cfg.LogStreams,
		SegmentSize: e.cfg.SegmentSize,
		BatchMax:    e.cfg.GroupCommitBatch,
		OnMetaChange: func(id srss.PLogID) error {
			return e.appendManifest(manifestWAL, id[:])
		},
		Obs: e.obs,
	}
}

// initObs caches metric handles and hooks the engine into the registry
// (along with the SRSS service under it). All handles are nil-safe, so an
// explicitly-nil registry simply disables recording.
func (e *Engine) initObs() {
	reg := e.cfg.Obs
	e.obs = reg
	e.mCommits = reg.Counter("core.commits")
	e.mAborts = reg.Counter("core.aborts")
	e.mConflicts = reg.Counter("core.conflicts")
	e.mDurabilityFail = reg.Counter("core.durability_failures")
	e.mReclaimed = reg.Counter("core.gc_reclaimed_versions")
	e.mCheckpoints = reg.Counter("core.checkpoints")
	e.mGCPause = reg.Histogram("core.gc_pause_ns")
	e.mCheckpointDur = reg.Histogram("core.checkpoint_ns")
	e.mCheckpointImage = reg.Gauge("core.checkpoint_image_bytes")
	e.mCompactions = reg.Counter("core.compactions")
	e.mCompactedBytes = reg.Counter("core.compaction_rewritten_bytes")
	// The log's retirable bytes: what GC has pruned of the records in the
	// segments there are (deadLog).
	reg.GaugeFunc("core.log_dead_bytes", e.logDeadBytes)
	// The indirection arrays' share of the heap ledger: the slot pages of
	// every table's PIA.
	reg.GaugeFunc("pia.slot_bytes", e.piaSlotBytes)
	// The indexes' share: every table's index trees, walked on each scrape.
	reg.GaugeFunc("index.node_bytes", e.indexNodeBytes)
	e.mPrivateBytes = reg.Gauge("core.payload_private_bytes")
	e.mSwings = reg.Counter("core.payload_swings")
	// Durability lag: log buffers queued (commits, prepares, decisions)
	// whose completion has not run yet, sampled at snapshot time.
	reg.GaugeFunc("core.durability_lag", func() int64 { return e.log.Pending() })
	// Prepared-but-undecided global transactions awaiting a coordinator.
	reg.GaugeFunc("core.indoubt_2pc", e.inDoubtCount)
	e.svc.AttachObs(reg)
}

// piaSlotBytes is the bytes of slot pages every table's PIA has allocated.
func (e *Engine) piaSlotBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var n int64
	for _, t := range e.tablesByID {
		n += t.rows.SlotBytes()
	}
	return n
}

// indexNodeBytes is the bytes the nodes of every table's indexes hold.
func (e *Engine) indexNodeBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var n int64
	for _, t := range e.tablesByID {
		for _, ix := range t.indexes {
			n += ix.NodeBytes()
		}
	}
	return n
}

// swung books n payloads pointed at the log, which took released bytes of
// private payload off the ledger.
func (e *Engine) swung(n, released int) {
	e.mSwings.Add(int64(n))
	e.mPrivateBytes.Add(-int64(released))
}

// dropPrivate takes v off the private-payload ledger, if it is still on it,
// when its payload goes away private: an eviction, GC, a 2PC abort.
func (e *Engine) dropPrivate(v *Version) {
	if v.release() {
		e.mPrivateBytes.Add(-int64(v.n.Load()))
	}
}

// Service returns the underlying SRSS deployment.
func (e *Engine) Service() *srss.Service { return e.svc }

// Log returns the WAL manager.
func (e *Engine) Log() *wal.Manager { return e.log }

// Stats returns the engine counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Obs returns the engine's observability registry (nil when disabled).
func (e *Engine) Obs() *obs.Registry { return e.obs }

// ManifestID returns the bootstrap PLog ID used by Recover.
func (e *Engine) ManifestID() srss.PLogID {
	e.manifestMu.Lock()
	defer e.manifestMu.Unlock()
	return e.manifest.ID()
}

// CurrentCSN returns the engine clock's current commit sequence number
// without advancing it. A primary reports this to replicas so they can
// compute their lag.
func (e *Engine) CurrentCSN() uint64 { return e.clk.Now() }

// Workers returns the session-slot count.
func (e *Engine) Workers() int { return len(e.workers) }

// Epoch returns the node's primary epoch: the lineage number of the write
// history it serves (or, for a replica, follows).
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// FencedBy returns the highest foreign primary epoch this node has
// observed (0 if none).
func (e *Engine) FencedBy() uint64 { return e.fencedBy.Load() }

// Fenced reports whether the node has observed a newer primary lineage
// than its own and must therefore refuse writes and repl fetches.
func (e *Engine) Fenced() bool { return e.fencedBy.Load() > e.epoch.Load() }

// ReadOnly reports whether the engine rejects writes (replica mode).
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// ObserveEpoch folds a primary epoch observed from a remote node into the
// fencing state and reports whether this node is now fenced. Observing an
// epoch above our own demotes the node: the latch is monotonic and
// persisted to the manifest (best-effort -- fencing is enforced from the
// atomic even if the append fails) so a restart cannot forget it.
func (e *Engine) ObserveEpoch(remote uint64) bool {
	if remote > e.epoch.Load() {
		for {
			cur := e.fencedBy.Load()
			if remote <= cur {
				break
			}
			if e.fencedBy.CompareAndSwap(cur, remote) {
				_ = e.appendManifest(manifestFence, binary.AppendUvarint(nil, remote))
				break
			}
		}
	}
	return e.Fenced()
}

// writeBlocked classifies why a write must be refused right now: a fenced
// node surfaces the stale-epoch sentinel (rediscover the primary), a
// replica the read-only one (redirect to the primary). nil means writes
// are admitted.
func (e *Engine) writeBlocked() error {
	if e.Fenced() {
		return ErrStaleEpoch
	}
	if e.readOnly.Load() {
		return ErrReadOnlyReplica
	}
	return nil
}

// Close shuts down the engine. In-flight commits are drained first.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.stopMaintenance()
	e.log.Close()
}

// --- manifest ------------------------------------------------------------

// Manifest record types. Each record is: type(1) | uvarint len | payload.
const (
	manifestWAL        = 'W' // payload: 24-byte WAL metadata PLog ID
	manifestTable      = 'T' // payload: uvarint tableID | schema JSON
	manifestCheckpoint = 'C' // payload: 24-byte ckpt PLog ID | uvarint csn | uvarint entries
	manifestEpoch      = 'E' // payload: uvarint primary epoch of this lineage
	manifestFence      = 'F' // payload: uvarint foreign epoch this node is fenced by
	manifestShard      = 'S' // payload: opaque versioned shard-map bytes (wire encoding)
)

func (e *Engine) appendManifest(typ byte, payload []byte) error {
	buf := make([]byte, 0, len(payload)+12)
	buf = append(buf, typ)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	e.manifestMu.Lock()
	defer e.manifestMu.Unlock()
	if typ == manifestCheckpoint {
		e.lastCkptPayload = append([]byte(nil), payload...)
	}
	if typ == manifestShard {
		e.lastShardPayload = append([]byte(nil), payload...)
	}
	_, err := e.manifest.Append(buf)
	if err == nil {
		return nil
	}
	if !errors.Is(err, srss.ErrSealed) && !errors.Is(err, srss.ErrFull) {
		return err
	}
	// The manifest PLog was sealed by a node failure (or filled up):
	// migrate by rewriting the catalog, the current WAL bootstrap ID and
	// the newest checkpoint record into a fresh PLog, then re-anchor the
	// well-known identity in the management nodes (Section 4.2).
	fresh, cerr := e.svc.Create(srss.TierCompute)
	if cerr != nil {
		return cerr
	}
	write := func(typ byte, payload []byte) error {
		b := make([]byte, 0, len(payload)+12)
		b = append(b, typ)
		b = binary.AppendUvarint(b, uint64(len(payload)))
		b = append(b, payload...)
		_, werr := fresh.Append(b)
		return werr
	}
	e.mu.RLock()
	type tbl struct {
		id uint32
		s  *Schema
	}
	var tbls []tbl
	for id, t := range e.tablesByID {
		tbls = append(tbls, tbl{id: id, s: t.Schema})
	}
	e.mu.RUnlock()
	for _, t := range tbls {
		js, merr := t.s.marshal()
		if merr != nil {
			return merr
		}
		p := binary.AppendUvarint(nil, uint64(t.id))
		p = append(p, js...)
		if werr := write(manifestTable, p); werr != nil {
			return werr
		}
	}
	if e.log != nil {
		metaID := e.log.Directory().MetaID()
		if werr := write(manifestWAL, metaID[:]); werr != nil {
			return werr
		}
	}
	if e.lastCkptPayload != nil {
		if werr := write(manifestCheckpoint, e.lastCkptPayload); werr != nil {
			return werr
		}
	}
	if e.lastShardPayload != nil {
		if werr := write(manifestShard, e.lastShardPayload); werr != nil {
			return werr
		}
	}
	if ep := e.epoch.Load(); ep != 0 {
		if werr := write(manifestEpoch, binary.AppendUvarint(nil, ep)); werr != nil {
			return werr
		}
	}
	if fb := e.fencedBy.Load(); fb != 0 {
		if werr := write(manifestFence, binary.AppendUvarint(nil, fb)); werr != nil {
			return werr
		}
	}
	// Finally the record that triggered the migration (unless it is a
	// stale duplicate of what was just rewritten).
	if werr := write(typ, payload); werr != nil {
		return werr
	}
	e.manifest = fresh
	e.svc.SetWellKnown(e.cfg.Name, fresh.ID())
	return nil
}

// SetShardMap persists an opaque shard-map record in the manifest (the
// versioned topology record of internal/shard). The newest record wins on
// recovery; the bytes are owned by the caller's encoding.
func (e *Engine) SetShardMap(payload []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.appendManifest(manifestShard, payload)
}

// ShardMapPayload returns the newest persisted shard-map record (nil if
// none was ever set).
func (e *Engine) ShardMapPayload() []byte {
	e.manifestMu.Lock()
	defer e.manifestMu.Unlock()
	if e.lastShardPayload == nil {
		return nil
	}
	return append([]byte(nil), e.lastShardPayload...)
}

// --- DDL -----------------------------------------------------------------

// CreateTable registers a new table. The definition is persisted in the
// manifest so recovery can rebuild the catalog.
func (e *Engine) CreateTable(s *Schema) (*Table, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[s.Name]; dup {
		return nil, fmt.Errorf("core: table %q already exists", s.Name)
	}
	e.nextTable++
	t, err := e.buildTable(e.nextTable, s)
	if err != nil {
		return nil, err
	}
	js, err := s.marshal()
	if err != nil {
		return nil, err
	}
	payload := binary.AppendUvarint(nil, uint64(t.ID))
	payload = append(payload, js...)
	if err := e.appendManifest(manifestTable, payload); err != nil {
		return nil, err
	}
	e.tables[s.Name] = t
	e.tablesByID[t.ID] = t
	return t, nil
}

func (e *Engine) buildTable(id uint32, s *Schema) (*Table, error) {
	t := &Table{ID: id, Schema: s, rows: pia.New[Version](pia.Config{})}
	for range s.Indexes {
		t.indexes = append(t.indexes, index.New(index.Config{}))
	}
	return t, nil
}

// Table looks a table up by name.
func (e *Engine) Table(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

func (e *Engine) tableByID(id uint32) (*Table, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tablesByID[id]
	return t, ok
}

// Tables returns all table names.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	return out
}

// --- watermark -----------------------------------------------------------

// watermark returns the lowest begin timestamp among active transactions,
// or the current clock reading when none are active (Section 4.4's minimum
// readCSN across workers).
func (e *Engine) watermark() uint64 {
	min := e.clk.Now()
	for i := range e.workers {
		if b := e.workers[i].activeBegin.Load(); b != 0 && b < min {
			min = b
		}
	}
	return min
}

// DestageLog archives sealed log segments to the storage tier in the
// background (Section 3.1: the log is batched and flushed periodically to
// the storage layer for reliability and archival; compute-side copies keep
// serving reads). Returns the number of segments destaged.
func (e *Engine) DestageLog() (int, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	return e.log.DestageSealed()
}

// ImportRow installs a row as bulk-loaded data: its version carries the
// reserved load CSN (1), making it visible to every snapshot, including
// transactions already running. The ACID-cache deployment (Figure 3, right)
// uses this to fault cold rows in from a backing engine -- such rows
// logically predate the cache, so backdating them is the correct
// visibility. The row participates in checkpoints, recovery and GC like any
// other version; later updates supersede it normally under newest-wins
// replay.
func (e *Engine) ImportRow(tbl *Table, row Row) (RID, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if len(row) != len(tbl.Schema.Columns) {
		return 0, fmt.Errorf("core: row arity %d != %d columns", len(row), len(tbl.Schema.Columns))
	}
	// One row, logged on its own: its bytes before durability are a buffer of
	// exactly their size, which is also what a record that straddles a
	// storage chunk keeps.
	payload := EncodeRow(make([]byte, 0, encodedRowLen(row)), row)
	var view RowView
	if _, err := view.Reset(payload); err != nil {
		return 0, err
	}
	pk, err := tbl.viewIndexKeyAppend(nil, 0, &view, 0)
	if err != nil {
		return 0, err
	}
	// The row is reserved under its key's lock by a version carrying a TID
	// no transaction owns -- invisible to readers, a conflict to writers of
	// the key -- and logged once the lock is released: the log's I/O
	// goroutine takes key locks (a 2PC abort's undo). The version takes its
	// address and the load CSN when its record lands, on that goroutine.
	// The record carries a CSN drawn under stream 0's enqueue lock, like a
	// commit's: one queued behind a checkpoint's flush marker is above the
	// checkpoint's CSN, so recovery replays it from the tail, and one queued
	// ahead of it has landed before the checkpoint walks its image.
	const loadCSN = 1
	v := newVersion(e.tidSeq.Add(1)|tidFlag, payload, nil, true)
	rid, err := e.reserveImport(tbl, pk, &view, v)
	if err != nil {
		return 0, err
	}
	buf, off := wal.AppendRecord(nil, wal.OpInsert, tbl.ID, uint64(rid), payload)
	e.mPrivateBytes.Add(int64(len(payload)))
	landed := make(chan error, 1)
	stamp := func() { wal.StampTxn(buf, off, e.clk.Next()) }
	e.log.AppendTraced(0, buf, nil, stamp, func(base wal.Addr, err error) {
		if err == nil {
			win := logWindow{log: e.log}
			if n, ok := v.swing(&win, base.Add(uint32(wal.PayloadOffset(buf, len(payload)))), len(payload)); ok {
				e.swung(1, n)
			}
			v.addr.Store(uint64(base.Add(uint32(off))))
			v.tmin.Store(loadCSN)
		}
		landed <- err
	})
	if err := <-landed; err != nil {
		return 0, err
	}
	tbl.liveRows.Add(1)
	return rid, nil
}

// reserveImport installs ImportRow's version v of a row with primary key pk
// under pk's lock, unless a live row has the key, and indexes it.
func (e *Engine) reserveImport(tbl *Table, pk []byte, view *RowView, v *Version) (RID, error) {
	primary := tbl.indexes[0]
	lock := primary.LockKey(pk)
	defer lock.Unlock()
	if ridU, ok, err := primary.Get(pk); err != nil {
		return 0, err
	} else if ok {
		if head := tbl.rows.Get(RID(ridU)); head != nil && !head.tomb {
			return 0, fmt.Errorf("%w: import of existing key", ErrDuplicateKey)
		}
	}
	rid, err := tbl.rows.Alloc()
	if err != nil {
		return 0, err
	}
	if err := tbl.rows.Store(rid, v); err != nil {
		return 0, err
	}
	if err := primary.Insert(pk, uint64(rid)); err != nil {
		return 0, err
	}
	for i := 1; i < len(tbl.indexes); i++ {
		k, err := tbl.viewIndexKeyAppend(nil, i, view, rid)
		if err != nil {
			return 0, err
		}
		if err := tbl.indexes[i].Insert(k, uint64(rid)); err != nil {
			return 0, err
		}
	}
	return rid, nil
}
