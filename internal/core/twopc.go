package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"hiengine/internal/chaos"
	"hiengine/internal/wal"
)

// Two-phase commit participant (sharding). A prepared transaction is the
// paper's commit pipeline cut in half: the synchronous part (dependency
// resolution, conflict validation) runs at prepare, the whole write set is
// logged durably inside a single OpPrepare record on the answered-at-
// durability group-commit path, but NO commit sequence number is acquired
// and no version is stamped -- the writes stay TID-stamped, which is what
// makes a prepared transaction hold its write locks: conflicting writers
// keep hitting ErrConflict on the TID heads, and readers treat the versions
// as uncommitted. The coordinator's later decision appends an OpDecide
// record (also answered at durability); only its durability callback stamps
// the CSN into the versions (commit) or uninstalls them (abort). A crash
// between the two leaves the prepare record in the log without a decision;
// recovery reconstructs the transaction into the in-doubt list, TID stamps
// and all, until a decision arrives: the coordinator's, or the one the node
// fetches itself from the home once the gtid has been in doubt too long
// (internal/node's terminator).
//
// Decision ownership: the gtid encodes a "home" participant. The commit
// point of a cross-shard transaction is the home's durable decision record;
// other participants learn the outcome from the coordinator or, after a
// coordinator crash, by asking the home (TxnStatus). A home with no durable
// decision for a prepared gtid has, by construction, never acknowledged the
// commit to anyone -- so presumed abort is safe.

// Chaos injection sites for the 2PC participant.
const (
	// SitePrepareLog fires before the prepare record is handed to the log:
	// a crash here aborts the transaction cleanly -- nothing durable, the
	// coordinator sees a failed vote.
	SitePrepareLog = "core.prepare.log"
	// SiteDecideLog fires before the decision record is handed to the log:
	// a crash here leaves the transaction prepared and in-doubt.
	SiteDecideLog = "core.decide.log"
)

func init() {
	chaos.RegisterSite(SitePrepareLog, "crash before the prepare record is logged: clean abort, failed vote")
	chaos.RegisterSite(SiteDecideLog, "crash before the decision record is logged: transaction stays in-doubt")
}

// 2PC errors.
var (
	// ErrInDoubt is returned for operations that cannot proceed because the
	// transaction is prepared and awaiting the coordinator's decision.
	ErrInDoubt = errors.New("core: transaction is in-doubt (prepared, awaiting decision)")
	// ErrUnknownGTID is returned by a commit decision for a gtid this
	// participant never prepared (an abort decision for an unknown gtid is
	// a no-op: presumed abort).
	ErrUnknownGTID = errors.New("core: unknown global transaction")
	// ErrConflictingDecision is returned when a decision contradicts one
	// already made for the same gtid.
	ErrConflictingDecision = errors.New("core: conflicting 2PC decision")
)

// TxnState is a participant's knowledge of a global transaction's outcome.
type TxnState int

const (
	// TxnUnknown: no record of the gtid (never prepared here, or prepared
	// on a lineage this node never saw). Presumed abort.
	TxnUnknown TxnState = iota
	// TxnInDoubt: prepared, no durable decision.
	TxnInDoubt
	// TxnCommitted: durable commit decision.
	TxnCommitted
	// TxnAborted: durable abort decision.
	TxnAborted
)

// pend2pcEntry tracks one global transaction this participant prepared (or
// learned a decision for). Entries are retained after the decision so the
// home participant keeps answering TxnStatus across checkpoints; the
// checkpoint fence excludes the backing log segments accordingly (see
// filterFence2PC). Retention ends when the coordinator confirms the
// decision is durably applied everywhere and prunes the entry (Forget);
// entries whose coordinator never confirms (gtids their participants
// terminated, and the home's abort fences among them) are retained
// indefinitely.
type pend2pcEntry struct {
	gtid string

	mu  sync.Mutex
	txn *Txn // prepared transaction state; nil once decided (or for decision-only entries)

	havePrep bool
	prepSeg  uint16 // segment holding the OpPrepare record

	deciding bool // decision record handed to the log, not yet durable
	decided  bool // decision durable and applied
	commit   bool
	csn      uint64 // decision CSN (acquired for commit AND abort)
	decSeg   uint16 // segment holding the OpDecide record

	waiters []func(csn uint64, err error)
}

// prepHeaderLen is the encoded header size of an OpPrepare/OpDecide record
// (op + table 0 + rid 0 + payload length) -- the offset from the record's
// address to its payload.
func prepHeaderLen(payloadLen int) int {
	return 1 + 1 + 1 + uvarintLen(uint64(payloadLen))
}

// encodePreparePayload wraps a gtid and a transaction's raw log buffer into
// an OpPrepare payload.
func encodePreparePayload(gtid string, logBuf []byte) []byte {
	p := binary.AppendUvarint(make([]byte, 0, len(gtid)+len(logBuf)+4), uint64(len(gtid)))
	p = append(p, gtid...)
	return append(p, logBuf...)
}

// decodePreparePayload splits an OpPrepare payload into the gtid and the
// embedded write buffer. body aliases payload.
func decodePreparePayload(payload []byte) (gtid string, body []byte, err error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || int(n) <= 0 || w+int(n) > len(payload) {
		return "", nil, errors.New("core: corrupt prepare payload")
	}
	return string(payload[w : w+int(n)]), payload[w+int(n):], nil
}

// encodeDecidePayload builds an OpDecide payload.
func encodeDecidePayload(gtid string, commit bool) []byte {
	p := binary.AppendUvarint(make([]byte, 0, len(gtid)+3), uint64(len(gtid)))
	p = append(p, gtid...)
	if commit {
		return append(p, 1)
	}
	return append(p, 0)
}

// decodeDecidePayload parses an OpDecide payload.
func decodeDecidePayload(payload []byte) (gtid string, commit bool, err error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || int(n) <= 0 || w+int(n)+1 != len(payload) {
		return "", false, errors.New("core: corrupt decision payload")
	}
	return string(payload[w : w+int(n)]), payload[w+int(n)] == 1, nil
}

// encodeGTIDPayload builds an OpForget payload: just the gtid.
func encodeGTIDPayload(gtid string) []byte {
	p := binary.AppendUvarint(make([]byte, 0, len(gtid)+2), uint64(len(gtid)))
	return append(p, gtid...)
}

// decodeGTIDPayload parses an OpForget payload.
func decodeGTIDPayload(payload []byte) (string, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || int(n) <= 0 || w+int(n) != len(payload) {
		return "", errors.New("core: corrupt forget payload")
	}
	return string(payload[w:]), nil
}

// forEachEmbedded walks the standard records embedded in a prepare body.
// off is each record's byte offset within body.
func forEachEmbedded(body []byte, fn func(off int, rec wal.Record) error) error {
	pos := 0
	for pos < len(body) {
		rec, n, err := wal.DecodeRecord(body[pos:])
		if err != nil {
			return err
		}
		if err := fn(pos, rec); err != nil {
			return err
		}
		pos += n
	}
	return nil
}

// prepare is the synchronous form of PrepareAsync: it blocks until the
// prepare record is durable and returns the vote (readOnly=true means the
// transaction wrote nothing and committed locally; no decision is owed).
func (t *Txn) prepare(gtid string) (readOnly bool, err error) {
	type vote struct {
		ro  bool
		err error
	}
	done := make(chan vote, 1)
	if err := t.PrepareAsync(gtid, func(ro bool, err error) { done <- vote{ro, err} }); err != nil {
		return false, err
	}
	v := <-done
	return v.ro, v.err
}

// PrepareAsync runs phase one of 2PC on this participant: it validates the
// transaction exactly like a commit does (validate: fail-stop, fencing),
// then logs the whole write set inside one OpPrepare record and invokes cb
// once that record is durable. The versions stay TID-stamped -- invisible
// to readers, blocking conflicting writers -- until Resolve delivers the
// decision. The worker slot is released immediately (the session moves on;
// the prepared transaction no longer belongs to it). A read-only
// transaction commits locally and votes readOnly=true via cb.
func (t *Txn) PrepareAsync(gtid string, cb func(readOnly bool, err error)) error {
	ro, err := t.prepareStart(gtid, cb)
	if err != nil {
		return err
	}
	if ro {
		cb(true, nil)
	}
	return nil
}

func (t *Txn) prepareStart(gtid string, durable func(readOnly bool, err error)) (bool, error) {
	if gtid == "" {
		return false, errors.New("core: empty gtid")
	}
	if t.finished || t.prepared {
		return false, ErrTxnDone
	}
	// Nothing to prepare: a transaction that wrote nothing commits locally
	// and votes read-only; the coordinator excludes this participant from
	// phase two.
	if ro, err := t.validate(); err != nil || ro {
		return ro, err
	}
	e := t.e
	if err := e.svc.Chaos().Check(SitePrepareLog); err != nil {
		// Crash before the prepare record reached the log: nothing durable,
		// clean abort, the coordinator sees a failed vote.
		_ = t.Abort()
		return false, err
	}
	// Reserve the gtid atomically with the duplicate check, BEFORE the
	// record is handed to the log: if registration waited for the
	// durability callback, two concurrent prepares under one gtid could
	// both pass the check and the second entry would overwrite the first,
	// orphaning a prepared transaction that still holds its write locks
	// with no entry left to resolve it. The reservation also fences late
	// prepares against a gtid a participant already presume-aborted at its
	// home (the decision-only entry trips the duplicate check).
	entry := &pend2pcEntry{gtid: gtid, txn: t}
	e.pendMu.Lock()
	if _, dup := e.pend2pc[gtid]; dup {
		e.pendMu.Unlock()
		_ = t.Abort()
		return false, fmt.Errorf("core: gtid %q already prepared", gtid)
	}
	e.pend2pc[gtid] = entry
	e.pendMu.Unlock()

	// The write set stays with the transaction until the decision, long
	// after the slot has moved on: it is not recycled.
	ws := t.ws
	ws.slot = nil
	t.slot.lastLogBytes = len(ws.log)
	// The buffer goes into the prepare record unstamped, with no CSN trailer
	// to charge to its first record.
	ws.writes[0].newV.clearFlag(flagCSN)
	payload := encodePreparePayload(gtid, ws.log)
	buf, off := wal.AppendRecord(nil, wal.OpPrepare, 0, 0, payload)
	buf = wal.StampTxn(buf, off, 0)
	// Byte offset from the OpPrepare record's address to the embedded write
	// buffer: record header, then the gtid length prefix and gtid.
	embBase := off + prepHeaderLen(len(payload)) + uvarintLen(uint64(len(gtid))) + len(gtid)

	t.prepared = true
	worker := t.worker
	e.mPrivateBytes.Add(int64(ws.private))
	e.log.AppendTraced(worker, buf, t.trace, nil, func(base wal.Addr, err error) {
		if err == nil {
			// Stamp permanent addresses NOW: the embedded records are full
			// WAL records, so each version's home -- and its payload from
			// here on -- is inside the prepare record. A checkpoint taken
			// after the decision can then cover these writes like any others.
			ws.landed(base.Add(uint32(embBase)))
			entry.mu.Lock()
			entry.havePrep = true
			entry.prepSeg = base.Segment()
			entry.mu.Unlock()
		} else {
			e.durabilityLost.Store(true)
			e.mDurabilityFail.Inc()
		}
		durable(false, err)
	})
	// Free the worker slot: the session moves on, the prepared transaction
	// belongs to the coordinator now. Its TID goes to the side table first,
	// then the slot stops answering for it, so a reader that meets it always
	// finds one of the two (resolve).
	e.side.set(t.tid, packStatus(txActive, 0))
	t.slot.tid.Store(0)
	t.finishSlot()
	return false, nil
}

// Resolve delivers the coordinator's decision for a prepared gtid. The
// decision record rides the same answered-at-durability log path as commits;
// done fires once it is durable AND applied (versions stamped for commit,
// uninstalled for abort) -- unlike local commits, 2PC visibility is NOT
// pipelined ahead of durability, because the decision CSN must never be
// observable if a crash could still lose the decision record. Idempotent:
// re-delivering the same decision attaches to the outcome; a contradicting
// decision fails with ErrConflictingDecision. An abort for an unknown gtid
// durably installs a decision-only abort entry -- a FENCE, not a no-op: a
// participant terminating a gtid by presumed abort may be racing a live
// coordinator whose prepare has not reached this home yet, and the fence
// makes the late prepare (duplicate-gtid check) or a late conflicting
// commit decision fail here instead of letting the transaction commit after
// the participant aborted. A commit for an unknown gtid fails with
// ErrUnknownGTID.
func (e *Engine) Resolve(gtid string, commit bool, done func(csn uint64, err error)) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.pendMu.Lock()
	entry := e.pend2pc[gtid]
	if entry == nil {
		if commit {
			e.pendMu.Unlock()
			return ErrUnknownGTID
		}
		entry = &pend2pcEntry{gtid: gtid}
		e.pend2pc[gtid] = entry
	}
	e.pendMu.Unlock()
	entry.mu.Lock()
	if entry.deciding || entry.decided {
		if entry.commit != commit {
			entry.mu.Unlock()
			return ErrConflictingDecision
		}
		if entry.decided {
			csn := uint64(0)
			if entry.commit {
				csn = entry.csn
			}
			entry.mu.Unlock()
			done(csn, nil)
			return nil
		}
		entry.waiters = append(entry.waiters, done)
		entry.mu.Unlock()
		return nil
	}
	if e.durabilityLost.Load() {
		entry.mu.Unlock()
		return ErrDurabilityLost
	}
	if err := e.svc.Chaos().Check(SiteDecideLog); err != nil {
		// Crash before the decision record reached the log: the transaction
		// stays prepared and in-doubt.
		entry.mu.Unlock()
		return err
	}
	entry.deciding = true
	entry.commit = commit
	entry.waiters = append(entry.waiters, done)
	entry.mu.Unlock()

	buf, off := wal.AppendRecord(nil, wal.OpDecide, 0, 0, encodeDecidePayload(gtid, commit))
	// Both verdicts consume a CSN: stamping the decision record with a real
	// CSN keeps the checkpoint fence invariant uniform (every record in a
	// fenced segment has CSN <= the fencing checkpoint's CSN). It is drawn
	// under stream 0's enqueue lock, as a commit's is under its stream's.
	var csn uint64
	stamp := func(b []byte) []byte {
		csn = e.clk.Next()
		return wal.StampTxn(b, off, csn)
	}
	e.log.AppendTraced(0, buf, nil, stamp, func(base wal.Addr, err error) {
		entry.mu.Lock()
		if err == nil {
			entry.csn = csn
			entry.decSeg = base.Segment()
			e.applyDecisionLocked(entry)
			entry.decided = true
			entry.deciding = false
		} else {
			e.durabilityLost.Store(true)
			e.mDurabilityFail.Inc()
		}
		ws := entry.waiters
		entry.waiters = nil
		entry.mu.Unlock()
		out := uint64(0)
		if err == nil && commit {
			out = csn
		}
		for _, w := range ws {
			w(out, err)
		}
	})
	return nil
}

// applyDecisionLocked applies a durable decision to the prepared transaction
// state. Caller holds entry.mu. For commit, versions are stamped with the
// decision CSN exactly like a commit's stamp (writeSet.onStamp); for abort, the
// writes are uninstalled like Abort. Neither path touches the worker slot --
// it was released at prepare and may be running another transaction.
func (e *Engine) applyDecisionLocked(entry *pend2pcEntry) {
	t := entry.txn
	entry.txn = nil
	if t == nil {
		return // decision-only entry (no live prepared state here)
	}
	if entry.commit {
		csn := entry.csn
		e.side.set(t.tid, packStatus(txCommitted, csn))
		for i := range t.ws.writes {
			t.ws.writes[i].newV.tmin.Store(csn)
		}
		e.side.remove(t.tid)
		e.workers[t.worker].retireWrites(t.ws.writes, csn)
		t.csn, t.finished = csn, true
		e.mCommits.Inc()
		return
	}
	e.side.set(t.tid, packStatus(txAborted, 0))
	t.undo()
	e.side.remove(t.tid)
	t.finished = true
	e.mAborts.Inc()
}

// TxnStatus reports this participant's durable knowledge of a gtid. On the
// transaction's home participant this is the protocol's source of truth: a
// participant terminating the gtid treats TxnCommitted as commit and
// everything else as abort (presumed abort -- a home without a durable
// decision has never acknowledged the commit).
func (e *Engine) TxnStatus(gtid string) (TxnState, uint64) {
	entry := e.pendEntry(gtid)
	if entry == nil {
		return TxnUnknown, 0
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if !entry.decided {
		return TxnInDoubt, 0
	}
	if entry.commit {
		return TxnCommitted, entry.csn
	}
	return TxnAborted, 0
}

// InDoubt lists gtids prepared here whose decision has not yet been made
// durable, sorted for determinism.
func (e *Engine) InDoubt() []string {
	e.pendMu.Lock()
	var out []string
	for g, entry := range e.pend2pc {
		entry.mu.Lock()
		if !entry.decided {
			out = append(out, g)
		}
		entry.mu.Unlock()
	}
	e.pendMu.Unlock()
	sort.Strings(out)
	return out
}

// inDoubtCount is the gauge body behind core.indoubt_2pc.
func (e *Engine) inDoubtCount() int64 {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	var n int64
	for _, entry := range e.pend2pc {
		entry.mu.Lock()
		if !entry.decided {
			n++
		}
		entry.mu.Unlock()
	}
	return n
}

// filterFence2PC removes from a checkpoint's fence list every segment that
// recovery still needs to scan for 2PC state. The caller has already passed
// the durability barrier, so every entry whose records could live in a
// sealed segment is registered and its fields are stable:
//
//   - undecided: the OpPrepare record must replay (it reconstructs the
//     in-doubt transaction), so its segment stays unfenced.
//   - decided: the OpDecide record must replay (it is what lets this node
//     keep answering TxnStatus after a restart), so its segment stays
//     unfenced. A commit whose CSN is above the checkpoint CSN is not
//     covered by the image either, so its prepare segment also stays.
func (e *Engine) filterFence2PC(fence []uint16, ckptCSN uint64) []uint16 {
	e.pendMu.Lock()
	excl := make(map[uint16]bool)
	for _, entry := range e.pend2pc {
		entry.mu.Lock()
		if !entry.decided {
			if entry.havePrep {
				excl[entry.prepSeg] = true
			}
		} else {
			excl[entry.decSeg] = true
			if entry.commit && entry.csn > ckptCSN && entry.havePrep {
				excl[entry.prepSeg] = true
			}
		}
		entry.mu.Unlock()
	}
	e.pendMu.Unlock()
	if len(excl) == 0 {
		return fence
	}
	out := fence[:0]
	for _, s := range fence {
		if !excl[s] {
			out = append(out, s)
		}
	}
	return out
}

// protect2PCSegments removes segments holding live 2PC records from a
// compaction's drop set.
func (e *Engine) protect2PCSegments(drop map[uint16]bool) {
	e.pendMu.Lock()
	for _, entry := range e.pend2pc {
		entry.mu.Lock()
		if entry.havePrep {
			delete(drop, entry.prepSeg)
		}
		if entry.decided || entry.deciding {
			delete(drop, entry.decSeg)
		}
		entry.mu.Unlock()
	}
	e.pendMu.Unlock()
}

// reconstructInDoubt rebuilds a prepared transaction from its OpPrepare
// record at the end of the log (applier.settle: recovery, or replica
// promotion): TID-stamped versions are installed on top of the current heads
// -- re-acquiring the write locks -- and index entries are re-inserted for
// keys the transaction added, exactly mirroring the live write path so a
// later abort uninstalls cleanly. Runs single-threaded after replay and the
// index phase.
func (e *Engine) reconstructInDoubt(gtid string, addr wal.Addr, payload []byte) error {
	_, body, err := decodePreparePayload(payload)
	if err != nil {
		return err
	}
	embBase := prepHeaderLen(len(payload)) + (len(payload) - len(body))
	t := &Txn{
		e:        e,
		worker:   0,
		tid:      e.side.newTID(),
		ws:       &writeSet{e: e},
		prepared: true,
	}
	var newRow, oldRow RowView
	var kbuf []byte
	err = forEachEmbedded(body, func(off int, rec wal.Record) error {
		tbl, ok := e.tableByID(rec.Table)
		if !ok {
			return fmt.Errorf("core: prepare record for unknown table %d", rec.Table)
		}
		rid := RID(rec.RID)
		if err := tbl.rows.AllocAt(rid); err != nil {
			return err
		}
		head := tbl.rows.Get(rid)
		tomb := rec.Op == wal.OpDelete
		var frame, pay []byte
		if !tomb {
			frame = bytes.Clone(rec.Frame())
			pay = frame[len(frame)-len(rec.Payload):]
			e.mPrivateBytes.Add(int64(len(pay)))
		}
		newV := newVersion(t.tid, frame, head, false)
		newV.setAddr(addr.Add(uint32(embBase+off)), 0)
		if ok, err := tbl.rows.CompareAndSwap(rid, head, newV); err != nil || !ok {
			return fmt.Errorf("core: in-doubt reconstruction lost a CAS on table %d rid %d", rec.Table, rid)
		}
		// keysChanged is not in the log; assuming it only costs the GC a
		// look at the payloads.
		t.ws.writes = append(t.ws.writes, writeEntry{table: tbl, rid: rid, newV: newV, oldV: head, keysChanged: head != nil})
		if tomb {
			tbl.liveRows.Add(-1)
			return nil
		}
		if head == nil || head.tomb() {
			tbl.liveRows.Add(1)
		}
		// Mirror the live path's index discipline: inserts (and updates with
		// no visible predecessor) add every key; updates add only keys that
		// changed. An abort hides exactly those again.
		if _, err := newRow.Reset(pay); err != nil {
			return err
		}
		haveOld := false
		if rec.Op == wal.OpUpdate && head != nil && !head.tomb() {
			if p, err := head.payload(e); err == nil && p != nil {
				_, err = oldRow.Reset(p)
				haveOld = err == nil
			}
		}
		for i, def := range tbl.Schema.Indexes {
			if haveOld && oldRow.sameCols(&newRow, def.Columns) {
				continue
			}
			if kbuf, err = tbl.viewIndexKeyAppend(kbuf[:0], i, &newRow, rid); err != nil {
				return err
			}
			if err := tbl.indexes[i].Insert(kbuf, uint64(rid)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	entry := &pend2pcEntry{gtid: gtid, txn: t, havePrep: true, prepSeg: addr.Segment()}
	e.pendMu.Lock()
	e.pend2pc[gtid] = entry
	e.pendMu.Unlock()
	return nil
}

// Forget prunes a decided gtid once its coordinator has confirmed the
// decision durably applied at every participant: nobody will ever ask about
// the transaction again, so the entry that kept TxnStatus answering -- and
// kept the backing prepare/decision segments out of checkpoint fences and
// compaction drops -- can be dropped. The forget rides the log as an
// OpForget record (worker 0's stream, strictly after the decision record it
// tombstones) so recovery and live followers drop the entry too; done fires
// once the record is durable and the entry is gone. Forgetting an undecided
// gtid fails with ErrInDoubt; an unknown gtid succeeds as a no-op.
func (e *Engine) Forget(gtid string, done func(err error)) error {
	if e.closed.Load() {
		return ErrClosed
	}
	entry := e.pendEntry(gtid)
	if entry == nil {
		done(nil)
		return nil
	}
	entry.mu.Lock()
	decided := entry.decided
	entry.mu.Unlock()
	if !decided {
		return ErrInDoubt
	}
	if e.durabilityLost.Load() {
		return ErrDurabilityLost
	}
	buf, off := wal.AppendRecord(nil, wal.OpForget, 0, 0, encodeGTIDPayload(gtid))
	buf = wal.StampTxn(buf, off, 0)
	e.log.AppendTraced(0, buf, nil, nil, func(_ wal.Addr, err error) {
		if err == nil {
			e.pendMu.Lock()
			if e.pend2pc[gtid] == entry {
				delete(e.pend2pc, gtid)
			}
			e.pendMu.Unlock()
		} else {
			e.durabilityLost.Store(true)
			e.mDurabilityFail.Inc()
		}
		done(err)
	})
	return nil
}

// pendEntry returns gtid's entry, nil if there is none.
func (e *Engine) pendEntry(gtid string) *pend2pcEntry {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	return e.pend2pc[gtid]
}

// noteDecision records a durable decision the log applier met for a gtid
// with no live prepared state here.
func (e *Engine) noteDecision(gtid string, commit bool, csn uint64, decSeg uint16, prepSeg uint16, havePrep bool) {
	entry := &pend2pcEntry{
		gtid:     gtid,
		decided:  true,
		commit:   commit,
		csn:      csn,
		decSeg:   decSeg,
		prepSeg:  prepSeg,
		havePrep: havePrep,
	}
	e.pendMu.Lock()
	e.pend2pc[gtid] = entry
	e.pendMu.Unlock()
}
