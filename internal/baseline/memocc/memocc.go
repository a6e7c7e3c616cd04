// Package memocc is the memory-optimized baseline engine standing in for
// DBMS-M (the openGauss MOT-like commercial engine of Section 6.1.2): a
// single-version main-memory engine with Silo-style optimistic concurrency
// control, in-memory ART indexes, a transactional thread-local row cache,
// and group-committed redo logging.
//
// Per the paper's methodology, the engine persists its log in the compute
// tier so that network I/O does not dominate its runtime -- the comparison
// against HiEngine (Figures 6-7) is about engine architecture (OCC
// validation, single-version in-place updates, no cloud-native features),
// not about storage placement.
//
// Key contrasts with HiEngine: records are updated in place under short
// commit-time locks (no MVCC version chains, so readers of concurrently
// committed records abort at validation instead of reading snapshots);
// commit acknowledgements wait for the next group-commit epoch tick rather
// than pipelining (HiEngine's early commit, Section 5.2, is the paper's
// counterpoint); and the thread-local row cache gives it a different NUMA
// profile (fewer remote index traversals), which Figure 7 calls out.
package memocc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/delay"

	"hiengine/internal/art"
	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/pia"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// Errors. The retryable/duplicate/missing categories wrap the engineapi
// sentinels so drivers classify them uniformly.
var (
	ErrAbort       = fmt.Errorf("memocc: validation failed, transaction aborted: %w", engineapi.ErrConflict)
	ErrNotFound    = fmt.Errorf("memocc: %w", engineapi.ErrNotFound)
	ErrDuplicate   = fmt.Errorf("memocc: %w", engineapi.ErrDuplicate)
	ErrTxnDone     = errors.New("memocc: transaction finished")
	ErrUnsupported = errors.New("memocc: unsupported operation")
)

// Config configures the engine.
type Config struct {
	Service *srss.Service
	// Workers is the session-slot count (default 8); each slot owns a
	// thread-local row cache.
	Workers int
	// RowCacheSize bounds each worker's row cache (default 4096; 0
	// disables the cache).
	RowCacheSize int
	// GroupWindow is the group-commit epoch: commit acknowledgements wait
	// for the next epoch tick after their log records are written (MOT's
	// group commit). 0 disables the wait (ablation). Default 200us.
	GroupWindow time.Duration
	LogStreams  int
	SegmentSize int64
	BatchMax    int
}

func (c *Config) fill() error {
	if c.Service == nil {
		return errors.New("memocc: Config.Service required")
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.RowCacheSize == 0 {
		c.RowCacheSize = 4096
	}
	if c.GroupWindow == 0 {
		c.GroupWindow = 200 * time.Microsecond
	}
	if c.LogStreams <= 0 {
		c.LogStreams = c.Workers
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 8 << 20
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	return nil
}

// record is one row: a Silo-style TID word (bit 0 = locked, upper bits =
// version) plus the current encoded row (nil = absent/deleted).
type record struct {
	tid  atomic.Uint64
	data atomic.Pointer[[]byte]
}

const lockBit uint64 = 1

func (r *record) lock() bool {
	for i := 0; i < 256; i++ {
		v := r.tid.Load()
		if v&lockBit != 0 {
			if i&15 == 15 {
				runtime.Gosched()
			}
			continue
		}
		if r.tid.CompareAndSwap(v, v|lockBit) {
			return true
		}
	}
	return false // no-wait after bounded spinning
}

func (r *record) unlockBump(newVersion uint64) {
	r.tid.Store(newVersion << 1) // clears lock bit
}

func (r *record) unlock() {
	r.tid.Store(r.tid.Load() &^ lockBit)
}

// stableRead returns a consistent (data, version) pair.
func (r *record) stableRead() ([]byte, uint64) {
	for i := 0; ; i++ {
		v1 := r.tid.Load()
		if v1&lockBit != 0 {
			if i&15 == 15 {
				runtime.Gosched()
			}
			continue
		}
		d := r.data.Load()
		if r.tid.Load() != v1 {
			continue
		}
		if d == nil {
			return nil, v1
		}
		return *d, v1
	}
}

// table is schema + record store + ART indexes (index 0 = primary).
type table struct {
	id      uint32
	schema  *core.Schema
	records *pia.Map[record]
	indexes []*art.Tree
	insMu   [64]sync.Mutex // stripe locks for unique insert check+reserve
}

func (t *table) stripe(key []byte) *sync.Mutex {
	var h uint32 = 2166136261
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return &t.insMu[h&63]
}

func (t *table) keyOf(idx int, row core.Row) []byte {
	def := t.schema.Indexes[idx]
	vals := make([]core.Value, len(def.Columns))
	for i, c := range def.Columns {
		vals[i] = row[c]
	}
	return core.EncodeKey(nil, vals...)
}

func (t *table) indexKey(idx int, row core.Row, rid pia.RID) []byte {
	k := t.keyOf(idx, row)
	if !t.schema.Indexes[idx].Unique {
		k = core.EncodeRIDSuffix(k, uint64(rid))
	}
	return k
}

// rowCache is the transactional thread-local row cache: it memoizes
// key -> RID resolutions so repeated accesses skip the shared index.
type rowCache struct {
	m   map[string]pia.RID
	cap int
}

func (c *rowCache) get(k string) (pia.RID, bool) {
	if c.m == nil {
		return 0, false
	}
	rid, ok := c.m[k]
	return rid, ok
}

func (c *rowCache) put(k string, rid pia.RID) {
	if c.cap <= 0 {
		return
	}
	if c.m == nil {
		c.m = make(map[string]pia.RID, 64)
	}
	if len(c.m) >= c.cap {
		for key := range c.m { // random-ish eviction
			delete(c.m, key)
			break
		}
	}
	c.m[k] = rid
}

// DB is one engine instance.
type DB struct {
	cfg Config
	svc *srss.Service
	log *wal.Manager

	mu     sync.RWMutex
	tables map[string]*table

	commitSeq atomic.Uint64

	caches []rowCache

	// Stats.
	Commits atomic.Int64
	Aborts  atomic.Int64
}

// New builds an engine.
func New(cfg Config) (*DB, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	log, err := wal.Open(wal.Config{
		Service: cfg.Service, Tier: srss.TierCompute,
		Streams: cfg.LogStreams, SegmentSize: cfg.SegmentSize, BatchMax: cfg.BatchMax,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{cfg: cfg, svc: cfg.Service, log: log, tables: make(map[string]*table)}
	db.caches = make([]rowCache, cfg.Workers)
	for i := range db.caches {
		db.caches[i].cap = cfg.RowCacheSize
	}
	return db, nil
}

// Name implements engineapi.DB.
func (db *DB) Name() string { return "memocc" }

// Close shuts the engine down.
func (db *DB) Close() { db.log.Close() }

// CreateTable implements engineapi.DB.
func (db *DB) CreateTable(s *core.Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[s.Name]; ok {
		return fmt.Errorf("memocc: table %q exists", s.Name)
	}
	t := &table{
		id:      uint32(len(db.tables) + 1),
		schema:  s,
		records: pia.New[record](pia.Config{}),
	}
	for range s.Indexes {
		t.indexes = append(t.indexes, art.New())
	}
	db.tables[s.Name] = t
	return nil
}

func (db *DB) table(name string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("memocc: no table %q", name)
	}
	return t, nil
}

// --- transactions -----------------------------------------------------------

type readEntry struct {
	rec *record
	ver uint64
}

type writeOp struct {
	tbl     *table
	rid     pia.RID
	rec     *record
	newData []byte // nil = delete
	insert  bool
	op      byte
	logOff  int
	newIdx  []idxAdd // secondary entries added at commit for inserts
}

type idxAdd struct {
	tree *art.Tree
	key  []byte
}

// Txn is one OCC transaction.
type Txn struct {
	db       *DB
	worker   int
	reads    []readEntry
	writes   []writeOp
	logBuf   []byte
	finished bool
}

// Begin implements engineapi.DB.
func (db *DB) Begin(worker int) (engineapi.Txn, error) {
	return &Txn{db: db, worker: worker % db.cfg.Workers}, nil
}

// lookupRID resolves an encoded primary key through the thread-local row
// cache, falling back to the shared index.
func (t *Txn) lookupRID(tbl *table, key []byte) (pia.RID, bool) {
	// The cache key must be table-qualified: encoded keys from different
	// tables (e.g. district (w,d) and stock (w,i)) collide byte-for-byte.
	ck := string([]byte{byte(tbl.id), byte(tbl.id >> 8), byte(tbl.id >> 16), byte(tbl.id >> 24)}) + string(key)
	cache := &t.db.caches[t.worker]
	if rid, ok := cache.get(ck); ok {
		if tbl.records.Get(rid) != nil {
			return rid, true
		}
	}
	ridU, found, _ := tbl.indexes[0].Search(key)
	if !found {
		return 0, false
	}
	rid := pia.RID(ridU)
	cache.put(ck, rid)
	return rid, true
}

// pendingWrite returns this txn's buffered write for rec, if any.
func (t *Txn) pendingWrite(rec *record) *writeOp {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].rec == rec {
			return &t.writes[i]
		}
	}
	return nil
}

// GetByKey implements engineapi.Txn.
func (t *Txn) GetByKey(table string, idx int, key ...core.Value) (core.Row, error) {
	if t.finished {
		return nil, ErrTxnDone
	}
	tbl, err := t.db.table(table)
	if err != nil {
		return nil, err
	}
	def := tbl.schema.Indexes[idx]
	if !def.Unique {
		return nil, fmt.Errorf("memocc: GetByKey on non-unique index %q", def.Name)
	}
	k := core.EncodeKey(nil, key...)
	var rid pia.RID
	var found bool
	if idx == 0 {
		rid, found = t.lookupRID(tbl, k)
	} else {
		ridU, f, _ := tbl.indexes[idx].Search(k)
		rid, found = pia.RID(ridU), f
	}
	if !found {
		return nil, ErrNotFound
	}
	rec := tbl.records.Get(rid)
	if rec == nil {
		return nil, ErrNotFound
	}
	if w := t.pendingWrite(rec); w != nil {
		if w.newData == nil {
			return nil, ErrNotFound
		}
		return core.DecodeRow(w.newData)
	}
	data, ver := rec.stableRead()
	t.reads = append(t.reads, readEntry{rec: rec, ver: ver})
	if data == nil {
		return nil, ErrNotFound
	}
	return core.DecodeRow(data)
}

// ScanPrefix implements engineapi.Txn.
func (t *Txn) ScanPrefix(table string, idx int, prefix []core.Value, fn func(core.Row) bool) error {
	if t.finished {
		return ErrTxnDone
	}
	tbl, err := t.db.table(table)
	if err != nil {
		return err
	}
	p := core.EncodeKey(nil, prefix...)
	var scanErr error
	tbl.indexes[idx].Scan(p, core.KeySuccessor(p), func(_ []byte, ridU uint64, tomb bool) bool {
		if tomb {
			return true
		}
		rec := tbl.records.Get(pia.RID(ridU))
		if rec == nil {
			return true
		}
		var data []byte
		if w := t.pendingWrite(rec); w != nil {
			data = w.newData
		} else {
			var ver uint64
			data, ver = rec.stableRead()
			t.reads = append(t.reads, readEntry{rec: rec, ver: ver})
		}
		if data == nil {
			return true
		}
		row, err := core.DecodeRow(data)
		if err != nil {
			scanErr = err
			return false
		}
		return fn(row)
	})
	return scanErr
}

// Insert implements engineapi.Txn.
func (t *Txn) Insert(table string, row core.Row) error {
	if t.finished {
		return ErrTxnDone
	}
	tbl, err := t.db.table(table)
	if err != nil {
		return err
	}
	if len(row) != len(tbl.schema.Columns) {
		return fmt.Errorf("memocc: row arity %d != %d", len(row), len(tbl.schema.Columns))
	}
	pk := tbl.keyOf(0, row)
	enc := core.EncodeRow(nil, row)

	mu := tbl.stripe(pk)
	mu.Lock()
	ridU, found, _ := tbl.indexes[0].Search(pk)
	var rid pia.RID
	var rec *record
	if found {
		rid = pia.RID(ridU)
		rec = tbl.records.Get(rid)
		if rec != nil {
			// A same-transaction double insert is a definite duplicate.
			// An existing *committed* row is only tentatively one: the
			// commit-time check decides, after read validation has had
			// the chance to turn a stale-snapshot race into a retryable
			// abort (classic OCC deferral).
			if w := t.pendingWrite(rec); w != nil && w.newData != nil {
				mu.Unlock()
				t.fail()
				return ErrDuplicate
			}
		}
	}
	if rec == nil {
		var err error
		rid, err = tbl.records.Alloc()
		if err != nil {
			mu.Unlock()
			t.fail()
			return err
		}
		rec = &record{}
		if err := tbl.records.Store(rid, rec); err != nil {
			mu.Unlock()
			t.fail()
			return err
		}
		tbl.indexes[0].Insert(pk, uint64(rid))
	}
	mu.Unlock()

	w := writeOp{tbl: tbl, rid: rid, rec: rec, newData: enc, insert: true, op: wal.OpInsert}
	for i := 1; i < len(tbl.indexes); i++ {
		w.newIdx = append(w.newIdx, idxAdd{tree: tbl.indexes[i], key: tbl.indexKey(i, row, rid)})
	}
	t.logBuf, w.logOff = wal.AppendRecord(t.logBuf, wal.OpInsert, tbl.id, uint64(rid), enc)
	t.writes = append(t.writes, w)
	return nil
}

// UpdateByKey implements engineapi.Txn.
func (t *Txn) UpdateByKey(table string, idx int, key []core.Value, newRow core.Row) error {
	if t.finished {
		return ErrTxnDone
	}
	tbl, err := t.db.table(table)
	if err != nil {
		return err
	}
	if idx != 0 {
		return fmt.Errorf("%w: update via secondary index", ErrUnsupported)
	}
	k := core.EncodeKey(nil, key...)
	rid, found := t.lookupRID(tbl, k)
	if !found {
		return ErrNotFound
	}
	rec := tbl.records.Get(rid)
	if rec == nil {
		return ErrNotFound
	}
	if w := t.pendingWrite(rec); w != nil {
		if w.newData == nil {
			return ErrNotFound
		}
		// Overwrite the buffered write and append a superseding log
		// record; replay order within one transaction is positional.
		w.newData = core.EncodeRow(nil, newRow)
		t.logBuf, w.logOff = wal.AppendRecord(t.logBuf, wal.OpUpdate, tbl.id, uint64(rid), w.newData)
		return nil
	}
	data, ver := rec.stableRead()
	if data == nil {
		return ErrNotFound
	}
	t.reads = append(t.reads, readEntry{rec: rec, ver: ver})
	enc := core.EncodeRow(nil, newRow)
	w := writeOp{tbl: tbl, rid: rid, rec: rec, newData: enc, op: wal.OpUpdate}
	t.logBuf, w.logOff = wal.AppendRecord(t.logBuf, wal.OpUpdate, tbl.id, uint64(rid), enc)
	t.writes = append(t.writes, w)
	return nil
}

// DeleteByKey implements engineapi.Txn.
func (t *Txn) DeleteByKey(table string, key ...core.Value) error {
	if t.finished {
		return ErrTxnDone
	}
	tbl, err := t.db.table(table)
	if err != nil {
		return err
	}
	k := core.EncodeKey(nil, key...)
	rid, found := t.lookupRID(tbl, k)
	if !found {
		return ErrNotFound
	}
	rec := tbl.records.Get(rid)
	if rec == nil {
		return ErrNotFound
	}
	data, ver := rec.stableRead()
	if data == nil {
		return ErrNotFound
	}
	t.reads = append(t.reads, readEntry{rec: rec, ver: ver})
	w := writeOp{tbl: tbl, rid: rid, rec: rec, newData: nil, op: wal.OpDelete}
	t.logBuf, w.logOff = wal.AppendRecord(t.logBuf, wal.OpDelete, tbl.id, uint64(rid), nil)
	t.writes = append(t.writes, w)
	return nil
}

// Commit runs the OCC commit protocol: lock the write set, validate the
// read set, force the log (group commit), apply in place, release.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrTxnDone
	}
	if len(t.writes) == 0 {
		// Read-only: validate and finish.
		if !t.validateReads(nil) {
			t.fail()
			return ErrAbort
		}
		t.finished = true
		t.db.Commits.Add(1)
		return nil
	}
	// Phase 1: lock the write set (deduplicated, no-wait).
	locked := make(map[*record]bool, len(t.writes))
	for i := range t.writes {
		rec := t.writes[i].rec
		if locked[rec] {
			continue
		}
		if !rec.lock() {
			t.unlockAll(locked)
			t.fail()
			return ErrAbort
		}
		locked[rec] = true
	}
	// Phase 2: validate reads (records we also locked validate against
	// their pre-lock version).
	if !t.validateReads(locked) {
		t.unlockAll(locked)
		t.fail()
		return ErrAbort
	}
	// Insert race: a record we are inserting must still be absent.
	for i := range t.writes {
		w := &t.writes[i]
		if w.insert && w.rec.data.Load() != nil {
			t.unlockAll(locked)
			t.fail()
			return ErrDuplicate
		}
	}
	// Phase 3: commit TID, apply in place, release locks.
	ctid := t.db.commitSeq.Add(1)
	last := 0 // the buffer's last record: the latest any write appended
	for i := range t.writes {
		last = max(last, t.writes[i].logOff)
	}
	wal.StampTxn(t.logBuf, last, ctid)
	for i := range t.writes {
		w := &t.writes[i]
		if w.newData != nil {
			d := w.newData
			w.rec.data.Store(&d)
		} else {
			w.rec.data.Store(nil)
		}
		for _, add := range w.newIdx {
			add.tree.Insert(add.key, uint64(w.rid))
		}
	}
	for rec := range locked {
		rec.unlockBump(ctid)
	}
	// Phase 4: force the log and wait out the group-commit epoch. The
	// client acknowledgement is deferred to the next epoch tick -- the
	// behavior HiEngine's early commit (Section 5.2) improves on.
	if _, err := t.db.log.AppendSync(t.worker, t.logBuf); err != nil {
		t.fail()
		return err
	}
	if w := t.db.cfg.GroupWindow; w > 0 {
		now := time.Now()
		delay.Wait(now.Truncate(w).Add(w).Sub(now))
	}
	t.finished = true
	t.db.Commits.Add(1)
	return nil
}

func (t *Txn) validateReads(locked map[*record]bool) bool {
	for _, r := range t.reads {
		cur := r.rec.tid.Load()
		if locked != nil && locked[r.rec] {
			cur &^= lockBit // we hold the lock; compare versions only
		}
		if cur != r.ver {
			return false
		}
	}
	return true
}

func (t *Txn) unlockAll(locked map[*record]bool) {
	for rec := range locked {
		rec.unlock()
	}
}

// Abort implements engineapi.Txn.
func (t *Txn) Abort() error {
	if t.finished {
		return ErrTxnDone
	}
	t.fail()
	return nil
}

func (t *Txn) fail() {
	t.finished = true
	t.writes = nil
	t.reads = nil
	t.db.Aborts.Add(1)
}
