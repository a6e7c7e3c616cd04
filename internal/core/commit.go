package core

import (
	"hiengine/internal/wal"
)

// Commit finishes the transaction and blocks until its log records are
// durable (persisted and replicated by SRSS on the compute side). Visibility
// is pipelined: versions become visible to other transactions as soon as the
// commit sequence number is stamped, while the client acknowledgement waits
// for durability -- HiEngine's early-commit design (Section 5.2). Read-only
// transactions commit without touching the log, and without allocating.
func (t *Txn) Commit() error {
	if readOnly, err := t.commitCheck(); err != nil || readOnly {
		return err
	}
	done := make(chan error, 1)
	t.commitStart(func(err error) { done <- err })
	return <-done
}

// CommitAsync starts the commit and invokes cb (possibly on an I/O
// goroutine) once the transaction is durable. The worker can immediately
// begin its next transaction -- the commit-pipelining behavior of
// Section 4.2.
func (t *Txn) CommitAsync(cb func(error)) error {
	readOnly, err := t.commitCheck()
	if err != nil {
		return err
	}
	if readOnly {
		cb(nil)
		return nil
	}
	t.commitStart(cb)
	return nil
}

// commitCheck is what runs before a commit may start: readOnly reports a
// transaction that wrote nothing, now committed without touching the log; on
// an error the transaction did not commit.
func (t *Txn) commitCheck() (readOnly bool, err error) {
	if t.finished {
		return false, ErrTxnDone
	}
	if t.prepared {
		// A prepared 2PC participant is decided only through Engine.Resolve.
		return false, ErrInDoubt
	}
	if readOnly, err = t.validate(); err != nil || readOnly {
		return readOnly, err
	}
	if err := t.e.svc.Chaos().Check(SiteCommitBegin); err != nil {
		// Crash at the head of the commit pipeline: no CSN acquired, no
		// version stamped, nothing handed to the log -- a clean abort.
		_ = t.Abort()
		return false, err
	}
	return false, nil
}

// commitStart runs the synchronous part of a commit commitCheck let through:
// handing the log buffer to its stream, under whose enqueue lock the CSN is
// drawn and stamped (writeSet.onStamp). durable is invoked (from the I/O
// goroutine) with the durability result.
func (t *Txn) commitStart(durable func(error)) {
	// Hand the buffer to the stream's I/O goroutine; the worker slot is
	// freed immediately (commit pipelining). The write set is the log's
	// from here: it returns to the slot from the completion callback, which
	// may run before AppendTraced does.
	ws := t.ws
	t.ws = nil
	t.slot.lastLogBytes = len(ws.log)
	ws.txn, ws.durable = t, durable
	t.e.mPrivateBytes.Add(int64(ws.private))
	t.e.log.AppendTraced(t.worker, ws.log, t.trace, ws.stamp, ws.logDone)

	t.finishSlot()
	t.finished = true
	t.e.stats.Commits.Add(1)
	t.e.mCommits.Inc()

	// Interleave incremental GC with forward processing (Section 4.4).
	t.e.maybeGC(t.worker)
}

// onStamp is the part of a commit that runs under its log stream's enqueue
// lock, before the buffer is queued: the CSN is drawn and stamped on
// everything that carries it. So each stream holds its commits in CSN
// order, and a log flush that follows a clock reading (wal.Manager.Flush)
// returns with every commit at or below the reading stamped and landed.
func (ws *writeSet) onStamp() {
	t := ws.txn
	// Announce the commit before its CSN exists (precommitted, CSN 0): a
	// snapshot drawn after the clock moves must not find this transaction
	// still "active" -- it would skip the version now and see it, stamped at
	// or below its begin, on its next read. A reader that meets the
	// announcement waits for the CSN (visible), which is drawn next, under
	// the same lock.
	t.statusWord.Store(packStatus(txPrecommitted, 0))
	// Acquire the commit sequence number (atomic fetch-add on the global
	// counter, Section 3.5).
	csn := t.e.clk.Next()
	t.statusWord.Store(packStatus(txCommitted, csn))

	// Stamp versions: replace TIDs with the CSN in tmin of new versions
	// (Section 5.1). After this point other transactions read the new data.
	// The log buffer takes the CSN once, in its first record, and the end
	// mark on its last.
	for i := range ws.writes {
		ws.writes[i].newV.tmin.Store(csn)
	}
	wal.StampTxn(ws.log, ws.writes[len(ws.writes)-1].logOff, csn)
	// The status-map entry is only needed while versions still carry the
	// TID; drop it now that stamping is complete.
	t.e.status.remove(t.tid)
	t.slot.retireWrites(ws.writes, csn)
	// A Delay rule here stalls the stream; a Crash rule latches the crash,
	// which fails the append.
	_ = t.e.svc.Chaos().Check(SiteCommitDrawn)
}

// validate is what commit and prepare share before anything is logged:
// the fail-stop and fencing checks. It finishes a transaction that wrote
// nothing and reports it read-only; on an error the transaction has been
// aborted.
func (t *Txn) validate() (readOnly bool, err error) {
	// Fail-stop: once any commit's log append has failed durability, no
	// further commit may be acknowledged -- the client-visible history
	// would silently diverge from what recovery can reconstruct.
	if t.e.durabilityLost.Load() {
		_ = t.Abort()
		return false, ErrDurabilityLost
	}
	// A node fenced mid-transaction must not acknowledge buffered writes:
	// the new lineage would lose them.
	if t.hasWrites() {
		if err := t.e.writeBlocked(); err != nil {
			_ = t.Abort()
			return false, err
		}
	}
	if !t.hasWrites() {
		t.finish(txCommitted, 0)
		t.e.stats.Commits.Add(1)
		t.e.mCommits.Inc()
		return true, nil
	}
	return false, nil
}

// Abort rolls the transaction back: installed versions are uninstalled from
// the indirection arrays and index reservations are hidden again.
func (t *Txn) Abort() error {
	if t.finished {
		return ErrTxnDone
	}
	if t.prepared {
		// The write locks outlive the session: a prepared transaction is
		// in-doubt until the coordinator's decision arrives via Resolve.
		return ErrInDoubt
	}
	t.statusWord.Store(packStatus(txAborted, 0))
	t.undo()
	if t.ws != nil {
		t.ws.release()
		t.ws = nil
	}
	t.finish(txAborted, 0)
	t.e.stats.Aborts.Add(1)
	t.e.mAborts.Inc()
	return nil
}

// undo is the exact mirror of the transaction's writes, newest first so
// chained writes to one RID unwind correctly: each version is uninstalled,
// the index entries it added are hidden again, and the live-row count moves
// back. Which entries a version added is read off the payloads -- the keys
// it carries that no row left in the chain does (dropKeysOf).
func (t *Txn) undo() {
	if t.ws == nil {
		return
	}
	// Local scratch: a prepared transaction is rolled back off its worker.
	var u keyScratch
	for i := len(t.ws.writes) - 1; i >= 0; i-- {
		we := &t.ws.writes[i]
		// The CAS cannot fail: our TID head blocks other writers.
		_, _ = we.table.rows.CompareAndSwap(we.rid, we.newV, we.oldV)
		if t.prepared {
			// A prepared transaction's payloads went on the ledger with its vote.
			t.e.dropPrivate(we.newV)
		}
		if we.newV.tomb {
			we.table.liveRows.Add(1) // a delete
			continue
		}
		t.e.dropKeysOf(&u, we.table, we.rid, we.newV, nil)
		if we.oldV == nil || we.oldV.tomb {
			we.table.liveRows.Add(-1) // an insert, onto a fresh RID or a deleted row's
		}
	}
}

// keyScratch is what deriving index keys from version payloads needs, for
// the paths that run off a worker slot (abort of a prepared transaction, GC).
type keyScratch struct {
	row, other    RowView
	key, otherKey []byte
}

// dropKeysOf tombstones the index entries of v's row that map to rid, except
// those a live row in rid's chain, from its head down to (not including)
// stop, also carries: such an entry serves the snapshots that see that row.
// An abort calls it for the version it uninstalled, over the whole chain
// that is left; GC for a version it is about to unlink, over what stays
// above it.
func (e *Engine) dropKeysOf(u *keyScratch, tbl *Table, rid RID, v, stop *Version) {
	p, err := v.payload(e)
	if err == nil {
		_, err = u.row.Reset(p)
	}
	if err != nil {
		return
	}
	for i, ix := range tbl.indexes {
		if u.key, err = tbl.viewIndexKeyAppend(u.key[:0], i, &u.row, rid); err != nil {
			continue
		}
		// Under the key's lock, as an insert's check-and-reserve is: one that
		// reuses rid for this key either has its version in the chain
		// already, and the entry stays, or finds the entry gone.
		lock := ix.LockKey(u.key)
		if cur, found, _ := ix.Get(u.key); found && cur == uint64(rid) && !e.chainCarriesKey(u, tbl, i, rid, tbl.rows.Get(rid), stop) {
			_ = ix.Delete(u.key)
		}
		lock.Unlock()
	}
}

// chainCarriesKey reports whether a live row in the chain from v down to,
// but not including, stop has u.key as its index-i key.
func (e *Engine) chainCarriesKey(u *keyScratch, tbl *Table, i int, rid RID, v, stop *Version) bool {
	for ; v != nil && v != stop; v = v.next.Load() {
		if v.tomb {
			continue
		}
		p, err := v.payload(e)
		if err == nil {
			_, err = u.other.Reset(p)
		}
		if err == nil {
			u.otherKey, err = tbl.viewIndexKeyAppend(u.otherKey[:0], i, &u.other, rid)
		}
		if err == nil && string(u.otherKey) == string(u.key) {
			return true
		}
	}
	return false
}

// finish marks the transaction terminal and releases its worker slot.
func (t *Txn) finish(state, csn uint64) {
	t.statusWord.Store(packStatus(state, csn))
	t.e.status.remove(t.tid)
	t.finishSlot()
	t.finished = true
}

func (t *Txn) finishSlot() {
	slot := &t.e.workers[t.worker]
	slot.lastRead.Store(t.e.clk.Now())
	slot.activeBegin.Store(0)
}

// retireWrites hands the versions writes committed at csn superseded to the
// slot's GC bag (Section 4.4: stale versions are reclaimed once no snapshot
// can see them).
func (s *workerSlot) retireWrites(writes []writeEntry, csn uint64) {
	s.mu.Lock()
	for i := range writes {
		s.retire(&writes[i], csn)
	}
	s.mu.Unlock()
}

// retire puts what a write committed at csn made garbage in the slot's bag:
// the version it superseded, and for a delete the PIA entry. A follower's
// applier retires a shipped record's the same way. Requires s.mu.
func (s *workerSlot) retire(we *writeEntry, csn uint64) {
	if we.oldV != nil {
		s.retired = append(s.retired, retiredVersion{
			owner:       we.newV,
			victim:      we.oldV,
			retireCSN:   csn,
			table:       we.table,
			rid:         we.rid,
			keysChanged: we.keysChanged,
		})
	}
	if we.newV.tomb {
		// A committed delete: once reclaimable, the PIA entry is cleared.
		// Its index entries go with the deleted row,
		// retired just above under the same CSN.
		s.retired = append(s.retired, retiredVersion{
			victim:    we.newV,
			retireCSN: csn,
			table:     we.table,
			rid:       we.rid,
			isDelete:  true,
		})
	}
}
