// Package engineapi defines the engine-neutral transactional interface that
// the workload drivers (sysbench, TPC-C) run against. HiEngine, the
// storage-centric baseline (innosim, standing in for InnoDB-backed DBMS-T
// and vanilla MySQL) and the memory-optimized OCC baseline (memocc, standing
// in for DBMS-M) each provide an adapter, so every experiment executes the
// same logical workload through the same call shapes.
package engineapi

import (
	"errors"

	"hiengine/internal/core"
	"hiengine/internal/obs"
)

// Traceable is implemented by transactions that can carry a per-request
// trace through the commit pipeline (see internal/obs). Callers type-assert:
// engines without pipeline instrumentation simply don't implement it.
type Traceable interface {
	SetTrace(*obs.Trace)
}

// Canonical error categories. Engines wrap their native errors around these
// sentinels so drivers can classify failures uniformly with errors.Is.
var (
	// ErrConflict marks retryable concurrency failures (write-write
	// conflicts, OCC validation aborts, lock conflicts). The transaction
	// has been aborted; the driver may retry it.
	ErrConflict = errors.New("engineapi: conflict")
	// ErrDuplicate marks unique-constraint violations.
	ErrDuplicate = errors.New("engineapi: duplicate key")
	// ErrNotFound marks missing rows.
	ErrNotFound = errors.New("engineapi: not found")
)

// DB is a transactional engine under benchmark.
type DB interface {
	// CreateTable registers a table. Engines that do not support
	// secondary indexes may reject schemas that declare them.
	CreateTable(schema *core.Schema) error
	// Begin starts a transaction on a worker slot.
	Begin(worker int) (Txn, error)
}

// Rebeginner is optionally implemented by engines whose finished
// transactions can begin again in the same handle, their commits still in
// flight. A caller that owns such a handle -- the SQL layer's session, for
// every transaction it runs, and its cursors -- begins each transaction in it
// instead of allocating one. A prepared 2PC participant is never reused: its
// decision still owns it.
type Rebeginner interface {
	// Rebegin begins a transaction on worker, in prev's handle when prev is
	// a finished, unprepared transaction of this engine, in a fresh one
	// otherwise.
	Rebegin(worker int, prev Txn) (Txn, error)
}

// BeginReusing begins a transaction on db, in prev's handle when db is a
// Rebeginner that can reuse it (prev may be nil).
func BeginReusing(db DB, worker int, prev Txn) (Txn, error) {
	if r, ok := db.(Rebeginner); ok && prev != nil {
		return r.Rebegin(worker, prev)
	}
	return db.Begin(worker)
}

// AsyncCommitter is optionally implemented by transactions that support
// pipelined commits (HiEngine, Section 4.2): CommitAsync makes the
// transaction's effects visible, frees the worker immediately, and invokes
// cb once the log records are durable, with the CSN the transaction
// committed at (0 for one that wrote nothing): its handle may have begun
// again by then (Rebeginner), so cb cannot ask it. Engines that must hold
// locks across the log force (the OCC baseline) do not implement it.
type AsyncCommitter interface {
	CommitAsync(cb func(csn uint64, err error)) error
}

// Preparer is optionally implemented by transactions that can act as a
// two-phase-commit participant. PrepareAsync durably logs the transaction's
// writes under the global transaction id gtid and invokes cb once the
// prepare record is durable: readOnly reports that the transaction wrote
// nothing (a read-only "yes" vote that owes the coordinator no decision);
// err is the participant's "no" vote (the transaction has been aborted).
// After a successful non-read-only prepare the transaction is in-doubt:
// Commit and Abort fail, and only the engine-level decision path can finish
// it.
type Preparer interface {
	PrepareAsync(gtid string, cb func(readOnly bool, err error)) error
}

// Importer is optionally implemented by engines that can install rows as
// bulk-loaded data visible to every snapshot (HiEngine's load CSN). The
// ACID-cache deployment uses it to fault in cold rows from a backing engine
// without snapshot-visibility anomalies.
type Importer interface {
	Import(table string, row core.Row) error
}

// Txn is one transaction. Rows and keys passed in are borrowed for the call,
// their values' payloads included: an engine that keeps any of one copies it
// (core.Value.Clone), so a caller may bind every statement's values into the
// same scratch, and the network server hands the engine arguments that point
// into the request they came in.
type Txn interface {
	Commit() error
	Abort() error

	// Insert adds a row.
	Insert(table string, row core.Row) error
	// GetByKey reads a row through unique index idx.
	GetByKey(table string, idx int, key ...core.Value) (core.Row, error)
	// UpdateByKey replaces the row matching key on unique index idx.
	UpdateByKey(table string, idx int, key []core.Value, newRow core.Row) error
	// DeleteByKey deletes the row matching key on the primary index.
	DeleteByKey(table string, key ...core.Value) error
	// ScanPrefix visits rows whose index-idx key starts with prefix, in
	// key order, until fn returns false.
	ScanPrefix(table string, idx int, prefix []core.Value, fn func(row core.Row) bool) error
}

// RawReader is optionally implemented by transactions that can hand out a
// row in its stored encoding (core.EncodeRow form) instead of decoding it,
// so a reader that only forwards or filters rows (the SQL layer's SELECT)
// never materialises the columns it does not look at. The payload passed to
// fn is immutable and may be kept, or values aliasing it: HiEngine's is the
// version's logged row. A kept payload pins the memory it lies in: a log
// chunk, or before durability its worker slot's log arena.
type RawReader interface {
	// GetByKeyRaw is GetByKey handing fn the encoded row.
	GetByKeyRaw(table string, idx int, key []core.Value, fn func(payload []byte) error) error
}

// RangeReader is optionally implemented by transactions that can scan a
// range of raw index keys and say, row by row, which entry they are on. It
// is the SQL layer's one scan: a SELECT reads its prefix's keys,
// [core.EncodeKey(prefix), core.KeySuccessor of that), and a cursor page,
// each a scan of its own under one snapshot, resumes just past the last key
// the page before it saw. Every engine served here implements it; a
// transaction that does not is read through Txn.ScanPrefix, and pages no
// cursor.
type RangeReader interface {
	// ScanRangeRaw visits, in key order, the rows whose index-idx keys fall
	// in [from, to), handing fn each entry's key (valid for the call) and
	// the encoded row (as RawReader's), until fn returns false.
	ScanRangeRaw(table string, idx int, from, to []byte, fn func(key, payload []byte) bool) error
}

// ColumnUpdater is optionally implemented by transactions that can run a
// point UPDATE as one call on the stored encoding: one index probe, the
// residual WHERE checked and the new row spliced from the old without
// decoding either. A caller without it (the baselines, test stubs) does the
// same with GetByKey, a check and a copy of the Row, and UpdateByKey.
type ColumnUpdater interface {
	// UpdateColumns sets the given columns of the row matching key on
	// unique index idx, provided each where column equals its value. It
	// reports whether the row was updated -- false, with nothing written,
	// when it does not satisfy where -- and ErrNotFound when no row has the
	// key.
	UpdateColumns(table string, idx int, key []core.Value, where, set []core.ColValue) (updated bool, err error)
}
