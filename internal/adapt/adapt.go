// Package adapt bridges the HiEngine core engine onto the engine-neutral
// engineapi interface used by the workload drivers, translating RID-centric
// core operations into the key-centric call shapes of the benchmarks and
// mapping core errors onto the canonical engineapi categories.
package adapt

import (
	"errors"
	"fmt"
	"sync"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/obs"
)

// DB wraps a core.Engine as an engineapi.DB.
type DB struct {
	e *core.Engine

	mu     sync.RWMutex
	tables map[string]*core.Table
}

// New wraps an engine.
func New(e *core.Engine) *DB {
	return &DB{e: e, tables: make(map[string]*core.Table)}
}

// Engine exposes the wrapped engine (for checkpoint/GC control in benches).
func (db *DB) Engine() *core.Engine { return db.e }

// Name implements engineapi.DB.
func (db *DB) Name() string { return "hiengine" }

// CreateTable implements engineapi.DB.
func (db *DB) CreateTable(s *core.Schema) error {
	t, err := db.e.CreateTable(s)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.tables[s.Name] = t
	db.mu.Unlock()
	return nil
}

func (db *DB) table(name string) (*core.Table, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if ok {
		return t, nil
	}
	t, err := db.e.Table(name)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.tables[name] = t
	db.mu.Unlock()
	return t, nil
}

// Import implements engineapi.Importer: the row is installed as bulk-loaded
// data visible to every snapshot.
func (db *DB) Import(table string, row core.Row) error {
	t, err := db.table(table)
	if err != nil {
		return err
	}
	_, err = db.e.ImportRow(t, row)
	return mapErr(err)
}

// Begin implements engineapi.DB.
func (db *DB) Begin(worker int) (engineapi.Txn, error) {
	t, err := db.e.Begin(worker % db.e.Workers())
	if err != nil {
		return nil, err
	}
	return &Txn{db: db, t: t}, nil
}

// Txn adapts core.Txn. It memoizes the most recent key lookup so the
// common GetByKey-then-UpdateByKey driver pattern resolves the RID once.
type Txn struct {
	db *DB
	t  *core.Txn

	lastTable *core.Table
	lastIdx   int
	lastKey   []byte
	lastRID   core.RID
}

// Unwrap exposes the underlying transaction.
func (tx *Txn) Unwrap() *core.Txn { return tx.t }

// SetTrace implements engineapi.Traceable: the trace rides the core
// transaction through the WAL commit pipeline.
func (tx *Txn) SetTrace(tr *obs.Trace) { tx.t.SetTrace(tr) }

func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrConflict):
		return fmt.Errorf("%w: %v", engineapi.ErrConflict, err)
	case errors.Is(err, core.ErrDuplicateKey):
		return fmt.Errorf("%w: %v", engineapi.ErrDuplicate, err)
	case errors.Is(err, core.ErrNotFound):
		return fmt.Errorf("%w: %v", engineapi.ErrNotFound, err)
	default:
		return err
	}
}

// Commit implements engineapi.Txn.
func (tx *Txn) Commit() error { return mapErr(tx.t.Commit()) }

// CommitAsync implements engineapi.AsyncCommitter: the transaction's
// versions are visible when this returns; cb fires on durability. cb goes to
// the engine as it is: a durability error is the log's or the storage
// service's, never one of the categories mapErr translates.
func (tx *Txn) CommitAsync(cb func(error)) error {
	return mapErr(tx.t.CommitAsync(cb))
}

// PrepareAsync implements engineapi.Preparer: the transaction becomes a 2PC
// participant under gtid; cb fires when the prepare record is durable.
func (tx *Txn) PrepareAsync(gtid string, cb func(readOnly bool, err error)) error {
	return mapErr(tx.t.PrepareAsync(gtid, func(ro bool, err error) { cb(ro, mapErr(err)) }))
}

// CSN implements engineapi.CSNReporter.
func (tx *Txn) CSN() uint64 { return tx.t.CSN() }

// Abort implements engineapi.Txn.
func (tx *Txn) Abort() error { return mapErr(tx.t.Abort()) }

// Insert implements engineapi.Txn.
func (tx *Txn) Insert(table string, row core.Row) error {
	t, err := tx.db.table(table)
	if err != nil {
		return err
	}
	_, err = tx.t.Insert(t, row)
	return mapErr(err)
}

// GetByKey implements engineapi.Txn.
func (tx *Txn) GetByKey(table string, idx int, key ...core.Value) (core.Row, error) {
	t, err := tx.db.table(table)
	if err != nil {
		return nil, err
	}
	rid, row, err := tx.t.GetByKey(t, idx, key...)
	if err == nil {
		tx.lastTable, tx.lastIdx, tx.lastRID = t, idx, rid
		tx.lastKey = core.EncodeKey(tx.lastKey[:0], key...)
	}
	return row, mapErr(err)
}

// GetByKeyRaw implements engineapi.RawReader. It does not feed the
// UpdateByKey memo: a reader of encoded rows is not about to write one.
func (tx *Txn) GetByKeyRaw(table string, idx int, key []core.Value, fn func([]byte) error) error {
	t, err := tx.db.table(table)
	if err != nil {
		return err
	}
	return mapErr(tx.t.GetByKeyRaw(t, idx, key, func(_ core.RID, p []byte) error {
		return fn(p)
	}))
}

// memoRID returns the memoized RID for (t, idx, key), if it matches the
// last successful lookup.
func (tx *Txn) memoRID(t *core.Table, idx int, key []core.Value) (core.RID, bool) {
	if tx.lastTable != t || tx.lastIdx != idx {
		return 0, false
	}
	var scratch [64]byte // the usual key stays on the stack
	probe := core.EncodeKey(scratch[:0], key...)
	if string(probe) != string(tx.lastKey) {
		return 0, false
	}
	return tx.lastRID, true
}

// UpdateByKey implements engineapi.Txn.
func (tx *Txn) UpdateByKey(table string, idx int, key []core.Value, newRow core.Row) error {
	t, err := tx.db.table(table)
	if err != nil {
		return err
	}
	rid, ok := tx.memoRID(t, idx, key)
	if !ok {
		rid, _, err = tx.t.GetByKey(t, idx, key...)
		if err != nil {
			return mapErr(err)
		}
	}
	return mapErr(tx.t.Update(t, rid, newRow))
}

// UpdateColumns implements engineapi.ColumnUpdater.
func (tx *Txn) UpdateColumns(table string, idx int, key []core.Value, where, set []core.ColValue) (bool, error) {
	t, err := tx.db.table(table)
	if err != nil {
		return false, err
	}
	updated, err := tx.t.UpdateColumns(t, idx, key, where, set)
	return updated, mapErr(err)
}

// DeleteByKey implements engineapi.Txn.
func (tx *Txn) DeleteByKey(table string, key ...core.Value) error {
	t, err := tx.db.table(table)
	if err != nil {
		return err
	}
	rid, ok := tx.memoRID(t, 0, key)
	if !ok {
		rid, _, err = tx.t.GetByKey(t, 0, key...)
		if err != nil {
			return mapErr(err)
		}
	}
	return mapErr(tx.t.Delete(t, rid))
}

// ScanPrefix implements engineapi.Txn.
func (tx *Txn) ScanPrefix(table string, idx int, prefix []core.Value, fn func(core.Row) bool) error {
	t, err := tx.db.table(table)
	if err != nil {
		return err
	}
	return mapErr(tx.t.ScanPrefix(t, idx, prefix, func(_ core.RID, row core.Row) bool {
		return fn(row)
	}))
}

// ScanPrefixRaw implements engineapi.RawReader.
func (tx *Txn) ScanPrefixRaw(table string, idx int, prefix []core.Value, fn func([]byte) bool) error {
	t, err := tx.db.table(table)
	if err != nil {
		return err
	}
	return mapErr(tx.t.ScanPrefixRaw(t, idx, prefix, func(_ core.RID, p []byte) bool {
		return fn(p)
	}))
}
