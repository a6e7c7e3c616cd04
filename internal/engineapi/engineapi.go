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
	// Name identifies the engine in reports.
	Name() string
}

// AsyncCommitter is optionally implemented by transactions that support
// pipelined commits (HiEngine, Section 4.2): CommitAsync makes the
// transaction's effects visible, frees the worker immediately, and invokes
// cb once the log records are durable. Engines that must hold locks across
// the log force (the OCC baseline) do not implement it.
type AsyncCommitter interface {
	CommitAsync(cb func(error)) error
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

// CSNReporter is optionally implemented by transactions that can report the
// commit sequence number they committed at. The service layer uses it to
// hand clients a read-your-writes token they can present to a replica.
type CSNReporter interface {
	// CSN returns the transaction's commit sequence number: nonzero once
	// the transaction has (pre)committed a write, 0 for read-only commits
	// and uncommitted transactions.
	CSN() uint64
}

// Importer is optionally implemented by engines that can install rows as
// bulk-loaded data visible to every snapshot (HiEngine's load CSN). The
// ACID-cache deployment uses it to fault in cold rows from a backing engine
// without snapshot-visibility anomalies.
type Importer interface {
	Import(table string, row core.Row) error
}

// Txn is one transaction. Rows and keys passed in are borrowed for the call:
// an engine that keeps any of one copies it, so a caller may bind every
// statement's values into the same scratch.
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
// fn may be storage-backed: it is valid only until fn returns.
type RawReader interface {
	// GetByKeyRaw is GetByKey handing fn the encoded row.
	GetByKeyRaw(table string, idx int, key []core.Value, fn func(payload []byte) error) error
	// ScanPrefixRaw is ScanPrefix handing fn encoded rows.
	ScanPrefixRaw(table string, idx int, prefix []core.Value, fn func(payload []byte) bool) error
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

// Raw returns tx's raw read interface: tx itself when it implements
// RawReader, otherwise a, set up to re-encode each row tx's decoding reads
// return (the baselines and test stubs, which have no stored encoding to
// hand out). The zero RawAdapter is ready to use; a caller that passes the
// same one on every call keeps its buffer across them.
func Raw(tx Txn, a *RawAdapter) RawReader {
	if r, ok := tx.(RawReader); ok {
		return r
	}
	a.tx = tx
	return a
}

// RawAdapter implements RawReader over any Txn; see Raw.
type RawAdapter struct {
	tx  Txn
	buf []byte
}

// GetByKeyRaw implements RawReader.
func (a *RawAdapter) GetByKeyRaw(table string, idx int, key []core.Value, fn func([]byte) error) error {
	row, err := a.tx.GetByKey(table, idx, key...)
	if err != nil {
		return err
	}
	a.buf = core.EncodeRow(a.buf[:0], row)
	return fn(a.buf)
}

// ScanPrefixRaw implements RawReader.
func (a *RawAdapter) ScanPrefixRaw(table string, idx int, prefix []core.Value, fn func([]byte) bool) error {
	return a.tx.ScanPrefix(table, idx, prefix, func(row core.Row) bool {
		a.buf = core.EncodeRow(a.buf[:0], row)
		return fn(a.buf)
	})
}
