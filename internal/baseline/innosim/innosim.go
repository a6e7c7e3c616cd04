// Package innosim is the storage-centric baseline engine: a page-based
// B+tree engine with a buffer pool, row locks and ARIES-style write-ahead
// logging forced to the storage tier at commit. It stands in for the
// InnoDB-backed systems of the paper's evaluation (Section 6.1.2):
//
//   - VariantDBMST models DBMS-T (GaussDB(for MySQL) without HiEngine): the
//     SQL layer is optimized and page writes are offloaded to the storage
//     tier ("the log is the database"), but commits still force the redo
//     log across the compute/storage network.
//   - VariantMySQL models vanilla MySQL: on top of the redo force, every
//     commit also forces the binlog, and page flushes pay a doublewrite
//     penalty -- the duplicated storage work the Taurus paper calls out.
//
// The engine is deliberately storage-centric: every page touch goes through
// the buffer pool (hash lookup, LRU maintenance, latch), misses charge
// cross-layer reads, and evictions of dirty pages charge cross-layer
// writes. That cost structure -- not any artificial slowdown -- is what the
// Figure 5 comparison measures.
package innosim

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// Variant selects the baseline flavor.
type Variant int

const (
	// VariantDBMST is the cloud-optimized InnoDB derivative (DBMS-T).
	VariantDBMST Variant = iota
	// VariantMySQL is vanilla MySQL (binlog + doublewrite).
	VariantMySQL
)

// String names the variant.
func (v Variant) String() string {
	if v == VariantMySQL {
		return "mysql"
	}
	return "dbms-t"
}

// Errors. The retryable/duplicate/missing categories wrap the engineapi
// sentinels so drivers classify them uniformly.
var (
	ErrConflict    = fmt.Errorf("innosim: row lock conflict: %w", engineapi.ErrConflict)
	ErrNotFound    = fmt.Errorf("innosim: %w", engineapi.ErrNotFound)
	ErrDuplicate   = fmt.Errorf("innosim: %w", engineapi.ErrDuplicate)
	ErrUnsupported = errors.New("innosim: unsupported operation")
	ErrTxnDone     = errors.New("innosim: transaction finished")
)

// Config configures the engine.
type Config struct {
	Service *srss.Service
	Variant Variant
	// SegmentSize / BatchMax configure the redo log, which has logStreams
	// streams.
	SegmentSize int64
	BatchMax    int

	// Sizes this package's tests shrink; fill gives each its default.
	//
	// bufferPoolPages caps resident pages (8192).
	bufferPoolPages int
	// leafCapacity is entries per leaf page (64).
	leafCapacity int
}

// logStreams is the redo log's stream count.
const logStreams = 4

func (c *Config) fill() error {
	if c.Service == nil {
		return errors.New("innosim: Config.Service required")
	}
	if c.bufferPoolPages <= 0 {
		c.bufferPoolPages = 8192
	}
	if c.leafCapacity <= 0 {
		c.leafCapacity = 64
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 8 << 20
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	return nil
}

// DB is one engine instance.
type DB struct {
	cfg Config
	svc *srss.Service
	log *wal.Manager
	// binlog models MySQL's second commit-time force.
	binlog *wal.Manager

	pool *bufferPool

	mu     sync.RWMutex
	tables map[string]*table

	locks lockTable

	tidSeq atomic.Uint64
}

// New builds an engine.
func New(cfg Config) (*DB, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	log, err := wal.Open(wal.Config{
		Service: cfg.Service, Tier: srss.TierStorage,
		Streams: logStreams, SegmentSize: cfg.SegmentSize, BatchMax: cfg.BatchMax,
	})
	if err != nil {
		return nil, err
	}
	touchFactor := 1
	if cfg.Variant == VariantMySQL {
		touchFactor = 3 // duplicated data storage: more page work per row
	}
	db := &DB{
		cfg:    cfg,
		svc:    cfg.Service,
		log:    log,
		pool:   newBufferPool(cfg.Service, cfg.bufferPoolPages, touchFactor),
		tables: make(map[string]*table),
	}
	if cfg.Variant == VariantMySQL {
		bl, err := wal.Open(wal.Config{
			Service: cfg.Service, Tier: srss.TierStorage,
			Streams: 1, SegmentSize: cfg.SegmentSize, BatchMax: cfg.BatchMax,
		})
		if err != nil {
			return nil, err
		}
		db.binlog = bl
	}
	db.locks.init()
	return db, nil
}

// Close shuts the engine down.
func (db *DB) Close() {
	db.log.Close()
	if db.binlog != nil {
		db.binlog.Close()
	}
}

// CreateTable implements engineapi.DB. Only primary-key schemas are
// supported (the storage-centric baseline runs the sysbench workloads).
func (db *DB) CreateTable(s *core.Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if len(s.Indexes) > 1 {
		return fmt.Errorf("%w: secondary indexes", ErrUnsupported)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[s.Name]; ok {
		return fmt.Errorf("innosim: table %q exists", s.Name)
	}
	id := uint32(len(db.tables) + 1)
	db.tables[s.Name] = newTable(id, s, db.pool, db.cfg.leafCapacity)
	return nil
}

func (db *DB) table(name string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("innosim: no table %q", name)
	}
	return t, nil
}

// --- transactions ---------------------------------------------------------

type pendingWrite struct {
	t      *table
	key    []byte
	row    []byte // encoded row; nil = delete
	insert bool
}

// Txn is one transaction: 2PL with no-wait exclusive row locks, deferred
// application of writes at commit, redo forced to the storage tier.
type Txn struct {
	db       *DB
	worker   int
	tid      uint64
	writes   []pendingWrite
	held     []lockRef
	logBuf   []byte
	finished bool
}

// Begin implements engineapi.DB.
func (db *DB) Begin(worker int) (engineapi.Txn, error) {
	return &Txn{db: db, worker: worker, tid: db.tidSeq.Add(1)}, nil
}

// Insert implements engineapi.Txn.
func (t *Txn) Insert(tableName string, row core.Row) error {
	if t.finished {
		return ErrTxnDone
	}
	tbl, err := t.db.table(tableName)
	if err != nil {
		return err
	}
	key, err := tbl.pkOf(row)
	if err != nil {
		return err
	}
	if !t.lock(tbl, key) {
		t.rollback()
		return ErrConflict
	}
	// Uniqueness: absent in the tree and not pending-deleted by us.
	if t.pendingRow(tbl, key) == nil {
		if _, found := tbl.search(key); found && !t.pendingDelete(tbl, key) {
			t.rollback()
			return ErrDuplicate
		}
	}
	enc := core.EncodeRow(nil, row)
	t.writes = append(t.writes, pendingWrite{t: tbl, key: key, row: enc, insert: true})
	t.logBuf, _ = wal.AppendRecord(t.logBuf, wal.OpInsert, tbl.id, 0, enc)
	return nil
}

// GetByKey implements engineapi.Txn (primary index only).
func (t *Txn) GetByKey(tableName string, idx int, key ...core.Value) (row core.Row, err error) {
	err = t.GetByKeyRaw(tableName, idx, key, func(enc []byte) (derr error) {
		row, derr = core.DecodeRow(enc)
		return derr
	})
	return row, err
}

// GetByKeyRaw implements engineapi.RawReader (primary index only). A leaf's
// row, like this transaction's own pending one, is never rewritten in place
// (an update swaps in a new encoding), so the payload may be kept.
func (t *Txn) GetByKeyRaw(tableName string, idx int, key []core.Value, fn func(payload []byte) error) error {
	if t.finished {
		return ErrTxnDone
	}
	if idx != 0 {
		return ErrUnsupported
	}
	tbl, err := t.db.table(tableName)
	if err != nil {
		return err
	}
	k := core.EncodeKey(nil, key...)
	if enc := t.pendingRow(tbl, k); enc != nil {
		return fn(enc)
	}
	if t.pendingDelete(tbl, k) {
		return ErrNotFound
	}
	enc, found := tbl.search(k)
	if !found {
		return ErrNotFound
	}
	return fn(enc)
}

// UpdateByKey implements engineapi.Txn.
func (t *Txn) UpdateByKey(tableName string, idx int, key []core.Value, newRow core.Row) error {
	if t.finished {
		return ErrTxnDone
	}
	if idx != 0 {
		return ErrUnsupported
	}
	tbl, err := t.db.table(tableName)
	if err != nil {
		return err
	}
	k := core.EncodeKey(nil, key...)
	if !t.lock(tbl, k) {
		t.rollback()
		return ErrConflict
	}
	if t.pendingRow(tbl, k) == nil && !t.pendingDelete(tbl, k) {
		if _, found := tbl.search(k); !found {
			return ErrNotFound
		}
	}
	enc := core.EncodeRow(nil, newRow)
	t.writes = append(t.writes, pendingWrite{t: tbl, key: k, row: enc})
	t.logBuf, _ = wal.AppendRecord(t.logBuf, wal.OpUpdate, tbl.id, 0, enc)
	return nil
}

// DeleteByKey implements engineapi.Txn.
func (t *Txn) DeleteByKey(tableName string, key ...core.Value) error {
	if t.finished {
		return ErrTxnDone
	}
	tbl, err := t.db.table(tableName)
	if err != nil {
		return err
	}
	k := core.EncodeKey(nil, key...)
	if !t.lock(tbl, k) {
		t.rollback()
		return ErrConflict
	}
	if t.pendingRow(tbl, k) == nil {
		if _, found := tbl.search(k); !found {
			return ErrNotFound
		}
	}
	t.writes = append(t.writes, pendingWrite{t: tbl, key: k, row: nil})
	t.logBuf, _ = wal.AppendRecord(t.logBuf, wal.OpDelete, tbl.id, 0, nil)
	return nil
}

// ScanPrefix implements engineapi.Txn (primary index only).
func (t *Txn) ScanPrefix(tableName string, idx int, prefix []core.Value, fn func(core.Row) bool) error {
	p := core.EncodeKey(nil, prefix...)
	var decErr error
	err := t.ScanRangeRaw(tableName, idx, p, core.KeySuccessor(p), func(_, enc []byte) bool {
		row, err := core.DecodeRow(enc)
		if err != nil {
			decErr = err
			return false
		}
		return fn(row)
	})
	if err != nil {
		return err
	}
	return decErr
}

// ScanRangeRaw implements engineapi.RangeReader (primary index only): the
// B-tree's leaves from from up to to, with this transaction's own updates
// and deletes laid over them. A leaf's row is never rewritten in place (an
// update swaps in a new encoding), so a payload handed out may be kept.
func (t *Txn) ScanRangeRaw(tableName string, idx int, from, to []byte, fn func(key, payload []byte) bool) error {
	if t.finished {
		return ErrTxnDone
	}
	if idx != 0 {
		return ErrUnsupported
	}
	tbl, err := t.db.table(tableName)
	if err != nil {
		return err
	}
	tbl.scan(from, to, func(k, enc []byte) bool {
		if t.pendingDelete(tbl, k) {
			return true
		}
		if pe := t.pendingRow(tbl, k); pe != nil {
			enc = pe
		}
		return fn(k, enc)
	})
	return nil
}

// pendingRow returns this txn's buffered row for key (nil if none/deleted).
func (t *Txn) pendingRow(tbl *table, key []byte) []byte {
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := &t.writes[i]
		if w.t == tbl && bytes.Equal(w.key, key) {
			return w.row
		}
	}
	return nil
}

func (t *Txn) pendingDelete(tbl *table, key []byte) bool {
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := &t.writes[i]
		if w.t == tbl && bytes.Equal(w.key, key) {
			return w.row == nil
		}
	}
	return false
}

func (t *Txn) lock(tbl *table, key []byte) bool {
	ref := lockRef{table: tbl.id, key: string(key)}
	for _, h := range t.held {
		if h == ref {
			return true
		}
	}
	if !t.db.locks.acquire(ref, t.tid) {
		return false
	}
	t.held = append(t.held, ref)
	return true
}

// Commit forces the redo log (and binlog for the MySQL variant) to the
// storage tier, applies buffered writes to the pages, and releases locks.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrTxnDone
	}
	if len(t.writes) > 0 {
		if _, err := t.db.log.AppendSync(t.worker, t.logBuf); err != nil {
			t.rollback()
			return err
		}
		if t.db.binlog != nil {
			if _, err := t.db.binlog.AppendSync(0, t.logBuf); err != nil {
				t.rollback()
				return err
			}
		}
		for i := range t.writes {
			w := &t.writes[i]
			if w.row == nil {
				w.t.delete(w.key)
			} else {
				w.t.insertOrReplace(w.key, w.row)
			}
		}
	}
	t.release()
	t.finished = true
	return nil
}

// Abort discards buffered writes and releases locks.
func (t *Txn) Abort() error {
	if t.finished {
		return ErrTxnDone
	}
	t.rollback()
	return nil
}

func (t *Txn) rollback() {
	t.release()
	t.writes = nil
	t.finished = true
}

func (t *Txn) release() {
	for _, ref := range t.held {
		t.db.locks.release(ref, t.tid)
	}
	t.held = nil
}

// --- row locks -------------------------------------------------------------

type lockRef struct {
	table uint32
	key   string
}

type lockTable struct {
	shards [64]lockShard
}

type lockShard struct {
	mu sync.Mutex
	m  map[lockRef]uint64
}

func (lt *lockTable) init() {
	for i := range lt.shards {
		lt.shards[i].m = make(map[lockRef]uint64)
	}
}

func (lt *lockTable) shard(ref lockRef) *lockShard {
	var h uint32 = 2166136261
	for i := 0; i < len(ref.key); i++ {
		h = (h ^ uint32(ref.key[i])) * 16777619
	}
	return &lt.shards[(h^ref.table)&63]
}

// acquire takes an exclusive no-wait lock (deadlock-free by construction).
func (lt *lockTable) acquire(ref lockRef, tid uint64) bool {
	s := lt.shard(ref)
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner, held := s.m[ref]; held {
		return owner == tid
	}
	s.m[ref] = tid
	return true
}

func (lt *lockTable) release(ref lockRef, tid uint64) {
	s := lt.shard(ref)
	s.mu.Lock()
	if s.m[ref] == tid {
		delete(s.m, ref)
	}
	s.mu.Unlock()
}
