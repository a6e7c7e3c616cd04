// Package cache implements HiEngine's horizontal deployment mode (Figure 3,
// right): HiEngine as a transparent ACID cache in front of a conventional
// storage engine. Applications talk to the cache through the same
// engineapi interface; hot rows are served and mutated at main-memory speed
// in the front engine, and committed changes propagate to the backing
// engine either synchronously (write-through) or from an asynchronous
// write-behind queue.
//
// Caching is per-row and demand-driven on primary-key access: a read that
// misses the front engine faults the row in from the backing engine before
// serving it. Preload caches a whole table, after which scans and secondary
// lookups are served too. The front engine's MVCC provides the
// transactional semantics (snapshot isolation, first-committer-wins); the
// backing engine observes committed post-images and must not be written
// out-of-band while the cache is live.
package cache

import (
	"errors"
	"fmt"
	"sync"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
)

// Mode selects how committed writes reach the backing engine.
type Mode int

const (
	// WriteThrough applies changes to the backing engine before Commit
	// returns. The front commit remains the transaction's atomicity
	// point; a backing-engine failure is surfaced but does not undo it.
	WriteThrough Mode = iota
	// WriteBehind queues committed changes and applies them from a
	// background goroutine; flush forces the queue empty.
	WriteBehind
)

// Errors.
var (
	ErrClosed = errors.New("cache: closed")
	// ErrNotCached is returned for scans and secondary lookups on tables
	// that were not preloaded (per-row caching cannot answer them).
	ErrNotCached = errors.New("cache: table not preloaded; scans need Preload")
)

// Config configures the cache.
type Config struct {
	// Front is the caching engine (HiEngine).
	Front engineapi.DB
	// Back is the backing engine (e.g. the storage-centric baseline).
	Back engineapi.DB
	// Mode selects write-through (default) or write-behind.
	Mode Mode
}

const (
	// queueDepth bounds the write-behind queue.
	queueDepth = 1024
	// loaderWorker is the front-engine worker slot reserved for fault-in
	// loads. Application sessions must not use it.
	loaderWorker = 7
)

// DB is the cache deployment.
type DB struct {
	cfg Config

	mu        sync.Mutex
	schemas   map[string]*core.Schema
	cached    map[string]bool // table\x00pk -> resident (or known-absent)
	preloaded map[string]bool
	closed    bool

	loaderMu sync.Mutex // serializes the fault-in loader worker

	queue chan backWrite
	wg    sync.WaitGroup

	wbMu  sync.Mutex
	wbErr error
}

type backWrite struct {
	table string
	pk    []core.Value
	row   core.Row // nil = delete
	flush chan struct{}
}

// New builds a cache over the two engines.
func New(cfg Config) (*DB, error) {
	if cfg.Front == nil || cfg.Back == nil {
		return nil, errors.New("cache: Front and Back engines are required")
	}
	db := &DB{
		cfg:       cfg,
		schemas:   make(map[string]*core.Schema),
		cached:    make(map[string]bool),
		preloaded: make(map[string]bool),
	}
	if cfg.Mode == WriteBehind {
		db.queue = make(chan backWrite, queueDepth)
		db.wg.Add(1)
		go db.writeBehindLoop()
	}
	return db, nil
}

// CreateTable registers the table in both engines. Backing engines that do
// not support secondary indexes get a primary-only schema.
func (db *DB) CreateTable(s *core.Schema) error {
	if err := db.cfg.Front.CreateTable(s); err != nil {
		return err
	}
	backSchema := s
	if err := db.cfg.Back.CreateTable(backSchema); err != nil {
		// Retry with the primary key only (e.g. innosim).
		trimmed := *s
		trimmed.Indexes = s.Indexes[:1]
		if err2 := db.cfg.Back.CreateTable(&trimmed); err2 != nil {
			return fmt.Errorf("cache: back engine rejected %q: %v (and primary-only: %v)", s.Name, err, err2)
		}
	}
	db.mu.Lock()
	db.schemas[s.Name] = s
	db.mu.Unlock()
	return nil
}

func (db *DB) schema(table string) (*core.Schema, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.schemas[table]
	if !ok {
		return nil, fmt.Errorf("cache: unknown table %q", table)
	}
	return s, nil
}

func cacheKey(table string, pk []core.Value) string {
	return table + "\x00" + string(core.EncodeKey(nil, pk...))
}

// pkOf extracts the primary key values of row, the transaction's own copy.
func pkOf(s *core.Schema, row core.Row) []core.Value {
	cols := s.Indexes[0].Columns
	pk := make([]core.Value, len(cols))
	for i, c := range cols {
		pk[i] = row[c].Clone()
	}
	return pk
}

// own copies values a statement lent the transaction, payloads included:
// they may point into the caller's request (engineapi.Txn), and the
// transaction keeps them until its writes reach the backing engine.
func own(vals []core.Value) []core.Value {
	out := make([]core.Value, len(vals))
	for i, v := range vals {
		out[i] = v.Clone()
	}
	return out
}

// ensureCached faults the row for (table, pk) into the front engine if it
// has never been resolved. Safe for concurrent callers.
func (db *DB) ensureCached(table string, pk []core.Value) error {
	key := cacheKey(table, pk)
	db.mu.Lock()
	if db.cached[key] || db.preloaded[table] || db.closed {
		closed := db.closed
		db.mu.Unlock()
		if closed {
			return ErrClosed
		}
		return nil
	}
	db.mu.Unlock()

	db.loaderMu.Lock()
	defer db.loaderMu.Unlock()
	// Re-check under the loader lock (another loader may have won).
	db.mu.Lock()
	if db.cached[key] {
		db.mu.Unlock()
		return nil
	}
	db.mu.Unlock()

	btx, err := db.cfg.Back.Begin(loaderWorker)
	if err != nil {
		return err
	}
	row, err := btx.GetByKey(table, 0, pk...)
	if errors.Is(err, engineapi.ErrNotFound) {
		btx.Abort()
		db.markCached(key) // negative entry: the back has nothing either
		return nil
	}
	if err != nil {
		btx.Abort()
		return err
	}
	btx.Commit()

	if err := db.loadIntoFront(table, row); err != nil {
		return err
	}
	db.markCached(key)
	return nil
}

// loadIntoFront installs one cold row in the front engine. Engines
// implementing engineapi.Importer install it as bulk-loaded data visible to
// every snapshot (the correct visibility: cold rows logically predate the
// cache); otherwise a normal loader transaction is used, which snapshots
// opened before the fault-in will not see.
func (db *DB) loadIntoFront(table string, row core.Row) error {
	if imp, ok := db.cfg.Front.(engineapi.Importer); ok {
		err := imp.Import(table, row)
		if errors.Is(err, engineapi.ErrDuplicate) {
			return nil // raced another loader; already resident
		}
		return err
	}
	ftx, err := db.cfg.Front.Begin(loaderWorker)
	if err != nil {
		return err
	}
	if err := ftx.Insert(table, row); err != nil {
		ftx.Abort()
		if errors.Is(err, engineapi.ErrDuplicate) {
			return nil
		}
		return err
	}
	return ftx.Commit()
}

func (db *DB) markCached(key string) {
	db.mu.Lock()
	db.cached[key] = true
	db.mu.Unlock()
}

// Preload caches every row of a table, enabling scans and secondary-index
// access through the cache.
func (db *DB) Preload(table string) (int, error) {
	db.loaderMu.Lock()
	defer db.loaderMu.Unlock()
	btx, err := db.cfg.Back.Begin(loaderWorker)
	if err != nil {
		return 0, err
	}
	var rows []core.Row
	if err := btx.ScanPrefix(table, 0, nil, func(row core.Row) bool {
		rows = append(rows, append(core.Row{}, row...))
		return true
	}); err != nil {
		btx.Abort()
		return 0, err
	}
	btx.Commit()
	s, err := db.schema(table)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, row := range rows {
		key := cacheKey(table, pkOf(s, row))
		db.mu.Lock()
		already := db.cached[key]
		db.mu.Unlock()
		if already {
			continue
		}
		if err := db.loadIntoFront(table, row); err != nil {
			return n, err
		}
		db.markCached(key)
		n++
	}
	db.mu.Lock()
	db.preloaded[table] = true
	db.mu.Unlock()
	return n, nil
}

// Begin implements engineapi.DB.
func (db *DB) Begin(worker int) (engineapi.Txn, error) {
	db.mu.Lock()
	closed := db.closed
	db.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	ftx, err := db.cfg.Front.Begin(worker)
	if err != nil {
		return nil, err
	}
	return &Txn{db: db, front: ftx}, nil
}

// Close drains the write-behind queue and stops the applier.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	if db.queue != nil {
		close(db.queue)
		db.wg.Wait()
	}
	return db.takeWBErr()
}

// flush blocks until all queued write-behind changes are applied.
func (db *DB) flush() error {
	if db.queue == nil {
		return nil
	}
	done := make(chan struct{})
	db.queue <- backWrite{flush: done}
	<-done
	return db.takeWBErr()
}

func (db *DB) takeWBErr() error {
	db.wbMu.Lock()
	defer db.wbMu.Unlock()
	err := db.wbErr
	db.wbErr = nil
	return err
}

func (db *DB) writeBehindLoop() {
	defer db.wg.Done()
	for w := range db.queue {
		if w.flush != nil {
			close(w.flush)
			continue
		}
		if err := db.applyToBack(w); err != nil {
			db.wbMu.Lock()
			if db.wbErr == nil {
				db.wbErr = err
			}
			db.wbMu.Unlock()
		}
	}
}

// applyToBack upserts/deletes one committed post-image in the back engine.
func (db *DB) applyToBack(w backWrite) error {
	btx, err := db.cfg.Back.Begin(loaderWorker)
	if err != nil {
		return err
	}
	if w.row == nil {
		err = btx.DeleteByKey(w.table, w.pk...)
		if errors.Is(err, engineapi.ErrNotFound) {
			err = nil
		}
	} else {
		err = btx.UpdateByKey(w.table, 0, w.pk, w.row)
		if errors.Is(err, engineapi.ErrNotFound) {
			err = btx.Insert(w.table, w.row)
		}
	}
	if err != nil {
		btx.Abort()
		return fmt.Errorf("cache: write-back %s: %w", w.table, err)
	}
	return btx.Commit()
}

// Txn is one cache transaction: it runs in the front engine and records the
// committed post-images for back propagation.
type Txn struct {
	db      *DB
	front   engineapi.Txn
	pending []backWrite
}

// GetByKey implements engineapi.Txn. Primary-key lookups fault rows in on
// demand; secondary unique lookups require Preload.
func (t *Txn) GetByKey(table string, idx int, key ...core.Value) (core.Row, error) {
	if err := t.cached(table, idx, key); err != nil {
		return nil, err
	}
	return t.front.GetByKey(table, idx, key...)
}

// errNoRaw refuses a raw read on a front engine without one.
var errNoRaw = errors.New("cache: front engine hands out no raw rows")

// GetByKeyRaw implements engineapi.RawReader (rows GetByKey would read, on a
// front engine that implements it).
func (t *Txn) GetByKeyRaw(table string, idx int, key []core.Value, fn func(payload []byte) error) error {
	if err := t.cached(table, idx, key); err != nil {
		return err
	}
	rr, ok := t.front.(engineapi.RawReader)
	if !ok {
		return errNoRaw
	}
	return rr.GetByKeyRaw(table, idx, key, fn)
}

// cached makes the row a lookup on index idx reads present in the front
// engine: a primary key's is faulted in, a secondary one needs Preload.
func (t *Txn) cached(table string, idx int, key []core.Value) error {
	if idx == 0 {
		return t.db.ensureCached(table, key)
	}
	if !t.db.isPreloaded(table) {
		return ErrNotCached
	}
	return nil
}

func (db *DB) isPreloaded(table string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.preloaded[table]
}

// ScanPrefix implements engineapi.Txn (preloaded tables only).
func (t *Txn) ScanPrefix(table string, idx int, prefix []core.Value, fn func(core.Row) bool) error {
	if !t.db.isPreloaded(table) {
		return ErrNotCached
	}
	return t.front.ScanPrefix(table, idx, prefix, fn)
}

// errNoRanges refuses a key-range scan on a front engine without one.
var errNoRanges = errors.New("cache: front engine scans no key ranges")

// ScanRangeRaw implements engineapi.RangeReader (preloaded tables, on a
// front engine that implements it).
func (t *Txn) ScanRangeRaw(table string, idx int, from, to []byte, fn func(key, payload []byte) bool) error {
	if !t.db.isPreloaded(table) {
		return ErrNotCached
	}
	rr, ok := t.front.(engineapi.RangeReader)
	if !ok {
		return errNoRanges
	}
	return rr.ScanRangeRaw(table, idx, from, to, fn)
}

// Insert implements engineapi.Txn.
func (t *Txn) Insert(table string, row core.Row) error {
	s, err := t.db.schema(table)
	if err != nil {
		return err
	}
	pk := pkOf(s, row)
	// Fault in any existing row first so uniqueness is checked against
	// the full dataset, not just the cached subset.
	if err := t.db.ensureCached(table, pk); err != nil {
		return err
	}
	if err := t.front.Insert(table, row); err != nil {
		return err
	}
	t.pending = append(t.pending, backWrite{table: table, pk: pk, row: own(row)})
	return nil
}

// UpdateByKey implements engineapi.Txn (primary key only).
func (t *Txn) UpdateByKey(table string, idx int, key []core.Value, newRow core.Row) error {
	if idx != 0 {
		return fmt.Errorf("cache: update via secondary index unsupported")
	}
	if err := t.db.ensureCached(table, key); err != nil {
		return err
	}
	if err := t.front.UpdateByKey(table, 0, key, newRow); err != nil {
		return err
	}
	s, err := t.db.schema(table)
	if err != nil {
		return err
	}
	t.pending = append(t.pending, backWrite{table: table, pk: pkOf(s, newRow), row: own(newRow)})
	return nil
}

// DeleteByKey implements engineapi.Txn.
func (t *Txn) DeleteByKey(table string, key ...core.Value) error {
	if err := t.db.ensureCached(table, key); err != nil {
		return err
	}
	if err := t.front.DeleteByKey(table, key...); err != nil {
		return err
	}
	t.pending = append(t.pending, backWrite{table: table, pk: own(key), row: nil})
	return nil
}

// Commit commits the front transaction (the atomicity point) and propagates
// the post-images to the backing engine per the configured mode.
func (t *Txn) Commit() error {
	if err := t.front.Commit(); err != nil {
		return err
	}
	for _, w := range t.pending {
		if t.db.cfg.Mode == WriteBehind {
			t.db.queue <- w
		} else if err := t.db.applyToBack(w); err != nil {
			return fmt.Errorf("cache: committed in front but back propagation failed: %w", err)
		}
	}
	t.pending = nil
	return nil
}

// Abort implements engineapi.Txn.
func (t *Txn) Abort() error {
	t.pending = nil
	return t.front.Abort()
}
