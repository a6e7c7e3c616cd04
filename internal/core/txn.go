package core

import (
	"fmt"
	"sync/atomic"

	"hiengine/internal/index"
	"hiengine/internal/obs"
	"hiengine/internal/wal"
)

// idxOp records an index entry inserted during execution; undo on abort is
// a tombstone hiding the entry again.
type idxOp struct {
	ix  *index.Index
	key []byte
}

// writeEntry records one write for commit stamping, logging, undo and GC.
type writeEntry struct {
	table  *Table
	rid    RID
	newV   *Version
	oldV   *Version // version superseded by newV (nil for a fresh insert)
	logOff int      // offset of the op record in Txn.logBuf
	idxOps []idxOp
	// oldKeys are index keys that become garbage when oldV is reclaimed
	// (key-changing updates and deletes keep old entries alive for old
	// snapshots; GC removes them).
	oldKeys []oldKey
}

type oldKey struct {
	ix  *index.Index
	key []byte
}

// Txn is one transaction. A Txn is not safe for concurrent use; it belongs
// to the session (worker) that began it.
type Txn struct {
	e      *Engine
	worker int
	tid    uint64
	begin  uint64

	statusWord atomic.Uint64 // packStatus(state, csn)

	writes []writeEntry
	logBuf []byte

	deps   map[uint64]*Txn // register-and-report commit dependencies
	doneCh chan struct{}

	finished bool
	// prepared marks a 2PC participant transaction that has voted and now
	// awaits the coordinator's decision: no further operations, commits or
	// aborts are accepted through the Txn; Engine.Resolve owns its fate.
	prepared bool

	// trace, when non-nil, attributes the commit pipeline's WAL and
	// replication stages to this transaction's request trace. Owned by the
	// transaction's worker goroutine until CommitAsync hands it to the WAL
	// I/O goroutine.
	trace *obs.Trace

	// view, kbuf and kbuf2 are scratch for deriving index keys from an
	// encoded row (read-path key verification, a write's old keys), reused
	// across calls: a Txn is single-goroutine.
	view        RowView
	kbuf, kbuf2 []byte
}

// SetTrace attaches a request trace to the transaction (nil detaches).
// The commit path threads it through the WAL so enqueue, group-commit,
// replication, and durability are attributed per request.
func (t *Txn) SetTrace(tr *obs.Trace) {
	if t == nil {
		return
	}
	t.trace = tr
}

// Begin starts a transaction on a worker slot. Each worker slot can run one
// transaction at a time (the paper binds one worker thread per core).
func (e *Engine) Begin(worker int) (*Txn, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.durabilityLost.Load() {
		return nil, ErrDurabilityLost
	}
	if worker < 0 || worker >= len(e.workers) {
		return nil, fmt.Errorf("core: worker %d out of range [0,%d)", worker, len(e.workers))
	}
	begin := e.clk.Now()
	slot := &e.workers[worker]
	if !slot.activeBegin.CompareAndSwap(0, begin) {
		return nil, ErrWorkerBusy
	}
	t := &Txn{
		e:      e,
		worker: worker,
		tid:    e.tidSeq.Add(1) | tidFlag,
		begin:  begin,
		doneCh: make(chan struct{}),
	}
	t.statusWord.Store(packStatus(txActive, 0))
	e.status.register(t)
	return t, nil
}

// Begin0 begins on worker 0 (convenience for examples and tests).
func (e *Engine) Begin0() (*Txn, error) { return e.Begin(0) }

// TID returns the transaction ID.
func (t *Txn) TID() uint64 { return t.tid }

// BeginTS returns the snapshot timestamp.
func (t *Txn) BeginTS() uint64 { return t.begin }

// CSN returns the commit sequence number (0 while active, after abort, or
// for read-only commits, which consume no CSN).
func (t *Txn) CSN() uint64 {
	st, csn := t.state()
	if st == txPrecommitted || st == txCommitted {
		return csn
	}
	return 0
}

// state returns (state, csn).
func (t *Txn) state() (uint64, uint64) {
	w := t.statusWord.Load()
	return statusState(w), statusCSN(w)
}

// --- visibility ----------------------------------------------------------

// visible reports whether version v is visible to t under snapshot
// isolation, resolving TID-stamped versions through the status map
// (Section 5.1) and, when enabled, registering commit dependencies on
// uncommitted versions (Section 5.2).
func (t *Txn) visible(v *Version) (bool, error) {
	for {
		raw := v.tmin.Load()
		if !isTID(raw) {
			return raw <= t.begin, nil
		}
		if raw == t.tid {
			return true, nil // own write
		}
		owner := t.e.status.lookup(raw)
		if owner == nil {
			// Already stamped (or uninstalled); re-read and resolve.
			if v.tmin.Load() == raw {
				// Still TID and gone from the map: the owner aborted
				// and is uninstalling; invisible.
				return false, nil
			}
			continue
		}
		st, csn := owner.state()
		switch st {
		case txPrecommitted, txCommitted:
			return csn <= t.begin, nil
		case txAborted:
			return false, nil
		default: // active
			if t.e.cfg.SpeculativeReads {
				// Early commit (Section 5.2): read the uncommitted
				// version and register a dependency; we cannot commit
				// before the owner does, and we abort if it aborts.
				t.addDep(owner)
				return true, nil
			}
			return false, nil
		}
	}
}

func (t *Txn) addDep(owner *Txn) {
	if t.deps == nil {
		t.deps = make(map[uint64]*Txn)
	}
	t.deps[owner.tid] = owner
}

// visibleVersion walks the chain from head and returns the first version
// visible to t (nil if none).
func (t *Txn) visibleVersion(head *Version) (*Version, error) {
	for v := head; v != nil; v = v.next.Load() {
		ok, err := t.visible(v)
		if err != nil {
			return nil, err
		}
		if ok {
			return v, nil
		}
	}
	return nil, nil
}

// --- reads ---------------------------------------------------------------
//
// The raw reads are the implementation; Get, GetByKey, ScanKey and
// ScanPrefix decode on top of them (the scans through scanEncoded). A raw callback receives the visible
// version's payload -- the encoded row exactly as it was logged -- which may
// be storage-backed memory: it is valid only until the callback returns, and
// a caller that keeps any of it must copy it out before then.

// GetRaw hands fn the encoded row at rid visible to t.
func (t *Txn) GetRaw(tbl *Table, rid RID, fn func(payload []byte) error) error {
	if t.finished {
		return ErrTxnDone
	}
	head := tbl.rows.Get(rid)
	if head == nil {
		return ErrNotFound
	}
	v, err := t.visibleVersion(head)
	if err != nil {
		return err
	}
	if v == nil || v.tomb {
		return ErrNotFound
	}
	p, err := v.payload(t.e)
	if err != nil {
		return err
	}
	return fn(p)
}

// Get returns the row at rid visible to t.
func (t *Txn) Get(tbl *Table, rid RID) (row Row, err error) {
	err = t.GetRaw(tbl, rid, func(p []byte) (derr error) {
		row, derr = DecodeRow(p)
		return derr
	})
	return row, err
}

// GetByKeyRaw looks a row up through a unique index and hands fn its RID
// and encoded form. vals are the index key column values in index order.
func (t *Txn) GetByKeyRaw(tbl *Table, idx int, vals []Value, fn func(rid RID, payload []byte) error) error {
	if t.finished {
		return ErrTxnDone
	}
	def := tbl.Schema.Indexes[idx]
	if !def.Unique {
		return fmt.Errorf("core: GetByKey on non-unique index %q", def.Name)
	}
	t.kbuf = EncodeKey(t.kbuf[:0], vals...)
	ridU, ok, err := tbl.indexes[idx].Get(t.kbuf)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNotFound
	}
	rid := RID(ridU)
	return t.GetRaw(tbl, rid, func(p []byte) error {
		// Index entries are single-versioned: verify the visible row still
		// carries the probed key (it may be a newer entry for a key this
		// snapshot should not see, or a stale entry for a changed key).
		if _, err := t.view.Reset(p); err != nil {
			return err
		}
		for i, c := range def.Columns {
			if !t.view.ColEqual(c, vals[i]) {
				return ErrNotFound
			}
		}
		return fn(rid, p)
	})
}

// GetByKey is GetByKeyRaw returning the decoded row.
func (t *Txn) GetByKey(tbl *Table, idx int, vals ...Value) (rid RID, row Row, err error) {
	err = t.GetByKeyRaw(tbl, idx, vals, func(r RID, p []byte) (derr error) {
		rid = r
		row, derr = DecodeRow(p)
		return derr
	})
	if err != nil {
		return 0, nil, err
	}
	return rid, row, nil
}

// ScanPrefixRaw visits the visible rows whose index keys start with the
// given values, encoded.
func (t *Txn) ScanPrefixRaw(tbl *Table, idx int, prefix []Value, fn func(rid RID, payload []byte) bool) error {
	p := encodePrefix(prefix)
	return t.scanEncoded(tbl, idx, p, KeySuccessor(p), fn)
}

// ScanKey visits, in key order, the visible rows whose index-idx keys fall
// in [from, to), decoded. A nil bound is open.
func (t *Txn) ScanKey(tbl *Table, idx int, from, to []Value, fn func(rid RID, row Row) bool) error {
	var fromK, toK []byte
	if from != nil {
		fromK = EncodeKey(nil, from...)
	}
	if to != nil {
		toK = EncodeKey(nil, to...)
	}
	return t.scanDecoded(tbl, idx, fromK, toK, fn)
}

// ScanPrefix is ScanPrefixRaw handing fn decoded rows.
func (t *Txn) ScanPrefix(tbl *Table, idx int, prefix []Value, fn func(rid RID, row Row) bool) error {
	p := encodePrefix(prefix)
	return t.scanDecoded(tbl, idx, p, KeySuccessor(p), fn)
}

// encodePrefix is EncodeKey into a buffer sized for a few fixed-width
// columns, so the usual prefix costs one allocation, not one per growth.
func encodePrefix(prefix []Value) []byte {
	return EncodeKey(make([]byte, 0, 32), prefix...)
}

func (t *Txn) scanDecoded(tbl *Table, idx int, fromK, toK []byte, fn func(rid RID, row Row) bool) error {
	var derr error
	err := t.scanEncoded(tbl, idx, fromK, toK, func(rid RID, p []byte) bool {
		var row Row
		if row, derr = DecodeRow(p); derr != nil {
			return false
		}
		return fn(rid, row)
	})
	if derr != nil {
		return derr
	}
	return err
}

func (t *Txn) scanEncoded(tbl *Table, idx int, fromK, toK []byte, fn func(rid RID, payload []byte) bool) error {
	if t.finished {
		return ErrTxnDone
	}
	var scanErr error
	err := tbl.indexes[idx].Scan(fromK, toK, func(key []byte, ridU uint64) bool {
		rid := RID(ridU)
		head := tbl.rows.Get(rid)
		if head == nil {
			return true
		}
		v, err := t.visibleVersion(head)
		if err != nil {
			scanErr = err
			return false
		}
		if v == nil || v.tomb {
			return true // not visible in this snapshot
		}
		p, err := v.payload(t.e)
		if err != nil {
			scanErr = err
			return false
		}
		// Verify the entry's key matches the visible row (a stale entry
		// for a changed key, or a newer key this snapshot must not see).
		// A single-version chain whose head is the visible version cannot
		// have stale entries: GC removes stale keys before pruning chains
		// to depth one, so the verification is skipped on that fast path.
		if t.e.readOnly.Load() || v != head || head.next.Load() != nil {
			if _, err = t.view.Reset(p); err == nil {
				t.kbuf, err = tbl.viewIndexKeyAppend(t.kbuf[:0], idx, &t.view, rid)
			}
			if err != nil {
				scanErr = err
				return false
			}
			if string(t.kbuf) != string(key) {
				return true
			}
		}
		return fn(rid, p)
	})
	if scanErr != nil {
		return scanErr
	}
	return err
}

// --- writes --------------------------------------------------------------

// Insert adds a new row and returns its RID. Unique-index violations abort
// with ErrDuplicateKey; conflicts with concurrent writers abort with
// ErrConflict.
func (t *Txn) Insert(tbl *Table, row Row) (RID, error) {
	if t.finished {
		return 0, ErrTxnDone
	}
	if err := t.e.writeBlocked(); err != nil {
		return 0, err
	}
	if len(row) != len(tbl.Schema.Columns) {
		return 0, fmt.Errorf("core: row arity %d != %d columns", len(row), len(tbl.Schema.Columns))
	}
	pk, err := tbl.keyOf(0, row)
	if err != nil {
		return 0, err
	}
	primary := tbl.indexes[0]

	// Serialize uniqueness-check + reservation per key.
	unlock := primary.LockKey(pk)
	existing, havePrev, err := t.checkUnique(tbl, primary, pk)
	if err != nil {
		unlock()
		return 0, t.failWith(err)
	}

	payload := EncodeRow(nil, row)
	var rid RID
	var oldV, newV *Version
	var ops []idxOp
	if havePrev {
		// The key maps to a RID whose chain is a visible committed
		// delete: reuse the RID by chaining a fresh version (keeps the
		// index entry stable).
		rid = existing
		head := tbl.rows.Get(rid)
		newV = newVersion(t.tid, payload, false, head)
		okCAS, err := tbl.rows.CompareAndSwap(rid, head, newV)
		if err != nil || !okCAS {
			unlock()
			return 0, t.failWith(ErrConflict)
		}
		oldV = head
	} else {
		rid, err = tbl.rows.Alloc()
		if err != nil {
			unlock()
			return 0, t.failWith(err)
		}
		newV = newVersion(t.tid, payload, false, nil)
		if err := tbl.rows.Store(rid, newV); err != nil {
			unlock()
			return 0, t.failWith(err)
		}
		if err := primary.Insert(pk, uint64(rid)); err != nil {
			unlock()
			return 0, t.failWith(err)
		}
		ops = append(ops, idxOp{ix: primary, key: pk})
	}
	unlock()

	// Secondary indexes.
	for i := 1; i < len(tbl.indexes); i++ {
		k, err := tbl.indexKey(i, row, rid)
		if err != nil {
			return 0, t.failWith(err)
		}
		if tbl.Schema.Indexes[i].Unique {
			ux := tbl.indexes[i]
			unlock := ux.LockKey(k)
			if _, dup, err := t.checkUnique(tbl, ux, k); err != nil {
				unlock()
				return 0, t.failWith(err)
			} else if dup {
				// A visible committed delete on a unique secondary:
				// treat as free (entry will be shadowed).
				_ = dup
			}
			if err := ux.Insert(k, uint64(rid)); err != nil {
				unlock()
				return 0, t.failWith(err)
			}
			unlock()
		} else {
			if err := tbl.indexes[i].Insert(k, uint64(rid)); err != nil {
				return 0, t.failWith(err)
			}
		}
		ops = append(ops, idxOp{ix: tbl.indexes[i], key: k})
	}

	var logOff int
	t.logBuf, logOff = wal.AppendRecord(t.logBuf, wal.OpInsert, tbl.ID, uint64(rid), payload)
	t.writes = append(t.writes, writeEntry{table: tbl, rid: rid, newV: newV, oldV: oldV, logOff: logOff, idxOps: ops})
	tbl.liveRows.Add(1)
	return rid, nil
}

// checkUnique inspects the chain behind an existing index entry for key.
// It returns (rid, reusable) where reusable means the key's record is a
// committed delete visible to t (insert may chain onto it). Errors:
// ErrDuplicateKey for a live or pending record, ErrConflict for an
// uncommitted writer.
func (t *Txn) checkUnique(tbl *Table, ix *index.Index, key []byte) (RID, bool, error) {
	ridU, ok, err := ix.Get(key)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	rid := RID(ridU)
	head := tbl.rows.Get(rid)
	if head == nil {
		return 0, false, nil // GC already cleared the record; stale entry
	}
	raw := head.tmin.Load()
	if isTID(raw) && raw != t.tid {
		// Pending insert/update by another transaction.
		return 0, false, ErrConflict
	}
	v, err := t.visibleVersion(head)
	if err != nil {
		return 0, false, err
	}
	if v != nil && !v.tomb {
		// Live row under our snapshot... but also guard against a
		// committed-but-invisible newer live version (first-committer
		// wins on insert too).
		return 0, false, ErrDuplicateKey
	}
	// Invisible or deleted. If the newest version is a committed delete,
	// the RID is reusable; if the newest is a live version committed
	// after our snapshot, that is a conflict.
	if !head.tomb && !isTID(head.tmin.Load()) {
		return 0, false, ErrConflict
	}
	if isTID(head.tmin.Load()) && head.tmin.Load() == t.tid && head.tomb {
		// We deleted it ourselves in this transaction: reuse.
		return rid, true, nil
	}
	if head.tomb {
		return rid, true, nil
	}
	return 0, false, ErrConflict
}

// Update replaces the row at rid. The caller supplies the complete new row
// (Section 4.2: versions store full record contents).
func (t *Txn) Update(tbl *Table, rid RID, row Row) error {
	if t.finished {
		return ErrTxnDone
	}
	if err := t.e.writeBlocked(); err != nil {
		return err
	}
	if len(row) != len(tbl.Schema.Columns) {
		return fmt.Errorf("core: row arity %d != %d columns", len(row), len(tbl.Schema.Columns))
	}
	head, err := t.fetchForWrite(tbl, rid)
	if err != nil {
		return err
	}
	payload := EncodeRow(nil, row)
	newV := newVersion(t.tid, payload, false, head)
	okCAS, err := tbl.rows.CompareAndSwap(rid, head, newV)
	if err != nil {
		return t.failWith(err)
	}
	if !okCAS {
		return t.failWith(ErrConflict)
	}
	we := writeEntry{table: tbl, rid: rid, newV: newV, oldV: head}
	// Index maintenance for key-changing updates: add entries for the new
	// keys, keep the old entries (older snapshots still resolve through
	// them); old entries die with the old version at GC. The old keys come
	// straight from the old payload (t.view, set by fetchForWrite); the
	// common unchanged-key case touches only the two scratch buffers.
	for i := 0; i < len(tbl.indexes); i++ {
		t.kbuf, err = tbl.viewIndexKeyAppend(t.kbuf[:0], i, &t.view, rid)
		if err != nil {
			return t.failWith(err)
		}
		t.kbuf2, err = tbl.indexKeyAppend(t.kbuf2[:0], i, row, rid)
		if err != nil {
			return t.failWith(err)
		}
		if string(t.kbuf) == string(t.kbuf2) {
			continue
		}
		oldK := append([]byte(nil), t.kbuf...)
		newK := append([]byte(nil), t.kbuf2...)
		if tbl.Schema.Indexes[i].Unique {
			ux := tbl.indexes[i]
			unlock := ux.LockKey(newK)
			if _, _, err := t.checkUnique(tbl, ux, newK); err != nil {
				unlock()
				return t.failWith(err)
			}
			if err := ux.Insert(newK, uint64(rid)); err != nil {
				unlock()
				return t.failWith(err)
			}
			unlock()
		} else {
			if err := tbl.indexes[i].Insert(newK, uint64(rid)); err != nil {
				return t.failWith(err)
			}
		}
		we.idxOps = append(we.idxOps, idxOp{ix: tbl.indexes[i], key: newK})
		we.oldKeys = append(we.oldKeys, oldKey{ix: tbl.indexes[i], key: oldK})
	}
	var logOff int
	t.logBuf, logOff = wal.AppendRecord(t.logBuf, wal.OpUpdate, tbl.ID, uint64(rid), payload)
	we.logOff = logOff
	t.writes = append(t.writes, we)
	return nil
}

// Delete removes the row at rid by installing a tombstone version.
func (t *Txn) Delete(tbl *Table, rid RID) error {
	if t.finished {
		return ErrTxnDone
	}
	if err := t.e.writeBlocked(); err != nil {
		return err
	}
	head, err := t.fetchForWrite(tbl, rid)
	if err != nil {
		return err
	}
	newV := newVersion(t.tid, nil, true, head)
	okCAS, err := tbl.rows.CompareAndSwap(rid, head, newV)
	if err != nil {
		return t.failWith(err)
	}
	if !okCAS {
		return t.failWith(ErrConflict)
	}
	we := writeEntry{table: tbl, rid: rid, newV: newV, oldV: head}
	// All index entries become garbage once the delete is reclaimable.
	for i := 0; i < len(tbl.indexes); i++ {
		k, err := tbl.viewIndexKeyAppend(nil, i, &t.view, rid)
		if err != nil {
			return t.failWith(err)
		}
		we.oldKeys = append(we.oldKeys, oldKey{ix: tbl.indexes[i], key: k})
	}
	var logOff int
	t.logBuf, logOff = wal.AppendRecord(t.logBuf, wal.OpDelete, tbl.ID, uint64(rid), nil)
	we.logOff = logOff
	t.writes = append(t.writes, we)
	tbl.liveRows.Add(-1)
	return nil
}

// fetchForWrite performs first-committer-wins conflict detection -- the
// newest version must be the visible one -- and leaves that version's
// encoded row in t.view for the caller to derive the old index keys from.
func (t *Txn) fetchForWrite(tbl *Table, rid RID) (*Version, error) {
	head := tbl.rows.Get(rid)
	if head == nil {
		return nil, ErrNotFound
	}
	raw := head.tmin.Load()
	if isTID(raw) && raw != t.tid {
		t.e.stats.Conflicts.Add(1)
		t.e.mConflicts.Inc()
		return nil, t.failWith(ErrConflict)
	}
	if !isTID(raw) && raw > t.begin {
		// Committed after our snapshot: first committer wins.
		t.e.stats.Conflicts.Add(1)
		t.e.mConflicts.Inc()
		return nil, t.failWith(ErrConflict)
	}
	// head is now our own write or a version visible to us.
	if head.tomb {
		return nil, ErrNotFound
	}
	p, err := head.payload(t.e)
	if err != nil {
		return nil, err
	}
	if _, err := t.view.Reset(p); err != nil {
		return nil, err
	}
	return head, nil
}

// failWith aborts the transaction (if the error demands it) and returns err.
func (t *Txn) failWith(err error) error {
	switch err {
	case ErrConflict, ErrDuplicateKey, ErrDependencyAborted:
		_ = t.Abort()
	}
	return err
}
