package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// Read-only replicas (Section 3.1): additional compute-side instances can
// be spawned on demand by loading state from the shared log. A replica
// recovers from the primary's manifest, opens the log read-only, and then
// follows it: CatchUp scans segments appended by the primary since the last
// call and applies them with the same newest-CSN-wins discipline as
// recovery. Replica freshness is whatever the catch-up cadence makes it --
// the paper's point that applications not needing high freshness can run
// cheap replicas.

// ErrReadOnlyReplica is returned for write operations on a replica.
var ErrReadOnlyReplica = errors.New("core: engine is a read-only replica")

// ErrStaleEpoch is returned when a node refuses work because a newer
// primary epoch than its own has been observed: the caller is talking to
// (or is) the losing side of a failover and must rediscover the current
// primary rather than retry here.
var ErrStaleEpoch = errors.New("core: stale primary epoch")

// Replica is a read-only follower of a primary engine sharing the same
// SRSS deployment.
type Replica struct {
	e *Engine

	mu       sync.Mutex
	applied  map[uint16]int64 // segment -> next unread offset
	fenced   map[uint16]bool  // segments covered by the recovery checkpoint
	catalog  map[uint32]*Table
	maxCSN   uint64
	manifest srss.PLogID // current manifest (the primary migrates it; TrackManifest follows)

	// view and kbuf are applyFollower's row walker and index-key buffer,
	// kept across the records of a shipped log instead of made for each.
	view RowView
	kbuf []byte

	// pendPrep buffers OpPrepare records seen while following, keyed by
	// gtid: their embedded writes apply only when the matching OpDecide
	// ships (commit) or are dropped (abort). Prepares still undecided at
	// promotion are adopted as in-doubt transactions.
	pendPrep map[string]replPrepare
	// pendForget holds gtids whose OpForget shipped before this follower
	// consumed both of the gtid's 2PC records (the prepare rides a
	// different log stream than the decision, so a forget can outrun it in
	// segment-scan order). The entry is dropped once prepare and decision
	// are both accounted for.
	pendForget map[string]bool
}

// replPrepare is one buffered prepare record on a follower.
type replPrepare struct {
	addr    wal.Addr
	payload []byte
}

// OpenReplica spawns a read-only replica from the primary's manifest. The
// replica shares the primary's SRSS service (the shared log is the state
// transfer medium); it creates no segments and never writes.
func OpenReplica(cfg Config, manifestID srss.PLogID, opt RecoverOptions) (*Replica, *RecoveryStats, error) {
	opt.readOnly = true
	e, stats, err := Recover(cfg, manifestID, opt)
	if err != nil {
		return nil, nil, err
	}
	r := &Replica{
		e:          e,
		applied:    make(map[uint16]int64),
		fenced:     make(map[uint16]bool),
		catalog:    make(map[uint32]*Table),
		maxCSN:     stats.MaxCSN,
		pendPrep:   make(map[string]replPrepare),
		pendForget: make(map[string]bool),
	}
	for _, seg := range stats.fenced {
		r.fenced[seg] = true
	}
	e.mu.RLock()
	for id, t := range e.tablesByID {
		r.catalog[id] = t
	}
	e.mu.RUnlock()
	r.manifest = manifestID
	return r, stats, nil
}

// TrackManifest records the primary's current manifest PLog ID so catalog
// refreshes read the live manifest even after the primary migrates it to a
// fresh PLog. Followers call this once per poll from the hello response.
func (r *Replica) TrackManifest(id srss.PLogID) {
	if id.IsZero() {
		return
	}
	r.mu.Lock()
	r.manifest = id
	r.mu.Unlock()
}

// refreshCatalogLocked re-scans the manifest for table records the replica
// has not built yet -- DDL that ran on the primary after this replica
// recovered. New tables are registered in the engine catalog (so reads and
// a future promotion see them) and in the replay catalog. Requires r.mu.
func (r *Replica) refreshCatalogLocked() (int, error) {
	p, err := r.e.svc.Open(r.manifest)
	if err != nil {
		return 0, err
	}
	added := 0
	e := r.e
	err = scanManifest(p, func(typ byte, payload []byte) error {
		if typ != manifestTable {
			return nil
		}
		id64, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("core: corrupt table manifest record")
		}
		id := uint32(id64)
		if _, known := r.catalog[id]; known {
			return nil
		}
		s, err := unmarshalSchema(payload[n:])
		if err != nil {
			return err
		}
		e.mu.Lock()
		t, dup := e.tablesByID[id]
		if !dup {
			if t, err = e.buildTable(id, s); err != nil {
				e.mu.Unlock()
				return err
			}
			e.tables[s.Name] = t
			e.tablesByID[id] = t
			if id > e.nextTable {
				e.nextTable = id
			}
			added++
		}
		e.mu.Unlock()
		r.catalog[id] = t
		return nil
	})
	return added, err
}

// Engine returns the replica's engine for read transactions. Writes fail
// with ErrReadOnlyReplica.
func (r *Replica) Engine() *Engine { return r.e }

// Close shuts the replica down.
func (r *Replica) Close() { r.e.Close() }

// AppliedCSN returns the highest commit sequence number applied so far (the
// replica's freshness horizon).
func (r *Replica) AppliedCSN() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxCSN
}

// testHookBeforeSegScan, when set, runs before CatchUp scans each segment.
// Tests use it to interleave a primary-side compaction between the
// follower's directory refresh and its segment scan -- the window in which
// a fenced-and-rewritten segment is dropped out from under a mid-catch-up
// follower, forcing the wal.ErrSegmentDropped recovery path below.
var testHookBeforeSegScan func(seg uint16)

// CatchUp scans the shared log for records appended since the last call and
// applies them. Returns the number of records applied. Concurrent reads on
// the replica observe a consistent cut: versions become visible atomically
// per record via the same CAS discipline as recovery.
func (r *Replica) CatchUp() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Pick up segments the primary created since we last looked.
	if err := r.e.log.RefreshDirectory(); err != nil {
		return 0, err
	}
	var applied int64
	refreshed := false
	for _, seg := range r.e.log.Segments() {
		if r.fenced[seg] {
			continue
		}
		if h := testHookBeforeSegScan; h != nil {
			h(seg)
		}
		from := r.applied[seg]
		next, err := r.e.log.ScanSegmentFrom(seg, from, func(addr wal.Addr, rec wal.Record) bool {
			// 2PC records carry table 0 and must be handled before the
			// catalog check below (table 0 is never known; the scan would
			// stall on them forever).
			if rec.Op == wal.OpPrepare || rec.Op == wal.OpDecide || rec.Op == wal.OpForget {
				if r.applyTwoPCFollower(addr, rec, &refreshed) {
					applied++
				}
				if rec.CSN > r.maxCSN {
					r.maxCSN = rec.CSN
				}
				return true
			}
			if _, known := r.catalog[rec.Table]; !known {
				// DDL ran on the primary after this replica recovered.
				// The manifest 'T' record precedes any WAL record for the
				// table, so one refresh per pass resolves it -- unless the
				// manifest bytes simply have not shipped yet, in which
				// case stop HERE (offset stays at this record) and retry
				// next pass. Skipping would silently drop the row and
				// advance the watermark over an unapplied commit.
				if !refreshed {
					refreshed = true
					_, _ = r.refreshCatalogLocked()
				}
				if _, known = r.catalog[rec.Table]; !known {
					return false
				}
			}
			if r.applyFollower(addr, rec) {
				applied++
			}
			if rec.CSN > r.maxCSN {
				r.maxCSN = rec.CSN
			}
			return true
		})
		if err != nil {
			if errors.Is(err, wal.ErrSegmentDropped) {
				// The primary dropped this segment (log compaction) under
				// us. Everything it held is covered by a newer checkpoint;
				// forget our progress and restart from the directory on the
				// next pass.
				delete(r.applied, seg)
				continue
			}
			return applied, err
		}
		r.applied[seg] = next
	}
	r.e.advanceClock(r.maxCSN)
	return applied, nil
}

// Promote transitions the replica into a writable primary engine -- the
// paper's "promotion = finish replay, then start writing". The shipped
// log's tail is sealed and group-commit streams start on fresh segments
// (wal.Manager.Promote); the background repairer starts if configured.
// observed is the highest foreign primary epoch seen while following; the
// new lineage's epoch is one past the max of it and the local (recovered)
// epoch, persisted in the manifest BEFORE the first write is admitted so a
// crash right after promotion still recovers into the new lineage.
// Idempotent: promoting an already-writable replica returns the current
// epoch. The caller must have stopped follower application and drained a
// final CatchUp first.
func (r *Replica) Promote(observed uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.e
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if !e.readOnly.Load() {
		return e.Epoch(), nil
	}
	if err := e.log.Promote(func(id srss.PLogID) error {
		return e.appendManifest(manifestWAL, id[:])
	}); err != nil {
		return 0, err
	}
	epoch := e.epoch.Load()
	if observed > epoch {
		epoch = observed
	}
	epoch++
	if err := e.appendManifest(manifestEpoch, binary.AppendUvarint(nil, epoch)); err != nil {
		return 0, err
	}
	e.epoch.Store(epoch)
	// Adopt prepares that shipped while following but whose decisions never
	// arrived: the new primary re-acquires their write locks as in-doubt
	// transactions so the coordinator can resolve them here (recovery-time
	// prepares were already reconstructed by OpenReplica's Recover).
	for gtid, p := range r.pendPrep {
		if err := e.reconstructInDoubt(gtid, p.addr, p.payload); err != nil {
			return 0, fmt.Errorf("core: adopting in-doubt %q at promotion: %w", gtid, err)
		}
		delete(r.pendPrep, gtid)
	}
	if e.cfg.RepairInterval > 0 && e.stopRepair == nil {
		e.stopRepair = e.svc.StartRepairer(e.cfg.RepairInterval)
	}
	e.readOnly.Store(false)
	return epoch, nil
}

// applyTwoPCFollower applies one 2PC record on the follower. The log is
// striped per worker -- decisions and forgets ride worker 0's stream while
// prepares ride the session worker's stream -- so within one CatchUp pass
// (ascending segment order) a gtid's records can arrive in ANY interleaving:
// prepare-then-decide, decide-then-prepare, even decide-then-forget-then-
// prepare. Application therefore mirrors recovery's order-independent
// matching instead of assuming prepare-first:
//
//   - A prepare with no noted state is buffered (its writes must not become
//     visible before the decision).
//   - A prepare whose decision was already noted applies its embedded writes
//     immediately (commit) or is dropped (abort) -- never buffered, so a
//     client-acked commit is never stranded invisible in pendPrep nor
//     resurrected as in-doubt at promotion.
//   - Decisions resolve a recovery-reconstructed in-doubt transaction or a
//     buffered prepare, and are always remembered so a promoted follower can
//     answer TxnStatus.
//   - Forgets drop the noted entry, deferring via pendForget until both of
//     the gtid's records have been consumed.
//
// Requires r.mu.
func (r *Replica) applyTwoPCFollower(addr wal.Addr, rec wal.Record, refreshed *bool) bool {
	e := r.e
	switch rec.Op {
	case wal.OpPrepare:
		gtid, _, err := decodePreparePayload(rec.Payload)
		if err != nil {
			return false
		}
		e.pendMu.Lock()
		entry := e.pend2pc[gtid]
		e.pendMu.Unlock()
		if entry == nil {
			r.pendPrep[gtid] = replPrepare{addr: addr, payload: append([]byte(nil), rec.Payload...)}
			return true
		}
		// The decision outran the prepare (noteDecision installed a
		// decision-only entry), or recovery already reconstructed this
		// prepare. Attach the prepare to the entry; apply the embedded
		// writes now if a commit was noted without them.
		entry.mu.Lock()
		applyNow := entry.decided && !entry.havePrep && entry.commit
		csn := entry.csn
		if entry.decided && !entry.havePrep {
			entry.havePrep = true
			entry.prepSeg = addr.Segment()
		}
		entry.mu.Unlock()
		if applyNow {
			r.applyPreparedWrites(addr, rec.Payload, csn, refreshed)
		}
		r.forgetIfSettled(gtid)
		return true
	case wal.OpDecide:
		gtid, commit, err := decodeDecidePayload(rec.Payload)
		if err != nil {
			return false
		}
		e.pendMu.Lock()
		entry := e.pend2pc[gtid]
		e.pendMu.Unlock()
		if entry != nil {
			// Recovery reconstructed this prepare as an in-doubt
			// transaction; deliver the decision to it directly.
			entry.mu.Lock()
			if !entry.decided {
				entry.commit = commit
				entry.csn = rec.CSN
				entry.decSeg = addr.Segment()
				e.applyDecisionLocked(entry)
				entry.decided = true
			}
			entry.mu.Unlock()
			r.forgetIfSettled(gtid)
			return true
		}
		p, buffered := r.pendPrep[gtid]
		if buffered {
			delete(r.pendPrep, gtid)
			if commit {
				r.applyPreparedWrites(p.addr, p.payload, rec.CSN, refreshed)
			}
		}
		e.noteDecision(gtid, commit, rec.CSN, addr.Segment(), p.addr.Segment(), buffered)
		r.forgetIfSettled(gtid)
		return true
	case wal.OpForget:
		gtid, err := decodeGTIDPayload(rec.Payload)
		if err != nil {
			return false
		}
		r.pendForget[gtid] = true
		r.forgetIfSettled(gtid)
		return true
	}
	return false
}

// applyPreparedWrites applies the writes embedded in an OpPrepare record's
// payload at the decision CSN, with the same catalog-refresh discipline as
// the plain-record path. addr is the prepare record's address. Requires r.mu.
func (r *Replica) applyPreparedWrites(addr wal.Addr, payload []byte, csn uint64, refreshed *bool) {
	_, body, err := decodePreparePayload(payload)
	if err != nil {
		return
	}
	embBase := prepHeaderLen(len(payload)) + (len(payload) - len(body))
	_ = forEachEmbedded(body, func(off int, emb wal.Record) error {
		if _, known := r.catalog[emb.Table]; !known && !*refreshed {
			*refreshed = true
			_, _ = r.refreshCatalogLocked()
		}
		emb.CSN = csn
		r.applyFollower(addr.Add(uint32(embBase+off)), emb)
		return nil
	})
}

// forgetIfSettled drops a gtid's pend2pc entry if an OpForget has shipped
// for it AND both of its 2PC records have been consumed (decided with the
// prepare accounted for). Forgetting earlier would let the still-unscanned
// record re-enter the empty-state paths -- a late prepare would buffer
// forever, exactly the bug the order-independent matching exists to prevent.
// Requires r.mu.
func (r *Replica) forgetIfSettled(gtid string) {
	if !r.pendForget[gtid] {
		return
	}
	e := r.e
	e.pendMu.Lock()
	entry := e.pend2pc[gtid]
	e.pendMu.Unlock()
	if entry == nil {
		delete(r.pendForget, gtid)
		return
	}
	entry.mu.Lock()
	settled := entry.decided && entry.havePrep
	entry.mu.Unlock()
	if !settled {
		return
	}
	e.pendMu.Lock()
	if e.pend2pc[gtid] == entry {
		delete(e.pend2pc, gtid)
	}
	e.pendMu.Unlock()
	delete(r.pendForget, gtid)
}

// applyFollower applies one log record on the replica: newest-CSN-wins into
// the PIA plus index maintenance (recovery defers index work to a bulk
// rebuild; a live follower must keep indexes current incrementally).
// Requires r.mu.
func (r *Replica) applyFollower(addr wal.Addr, rec wal.Record) bool {
	t, ok := r.catalog[rec.Table]
	if !ok {
		// Unreachable from CatchUp (it refreshes the catalog and halts
		// the scan on unknown tables before applying); kept as a guard.
		return false
	}
	if !applyReplay(t, addr, rec) {
		return false
	}
	rid := RID(rec.RID)
	head := t.rows.Get(rid)
	switch rec.Op {
	case wal.OpDelete:
		// Clear the tombstone stub (epoch preserved), mirroring the
		// recovery post-pass.
		if head != nil && head.tomb {
			_, _ = t.rows.DeleteIf(rid, head)
		}
	default:
		if _, err := r.view.Reset(rec.Payload); err != nil {
			return true // count as applied; the index entry is skipped
		}
		for i := 0; i < len(t.indexes); i++ {
			k, err := t.viewIndexKeyAppend(r.kbuf[:0], i, &r.view, rid)
			if err != nil {
				continue
			}
			_ = t.indexes[i].Insert(k, uint64(rid))
			r.kbuf = k
		}
		if rec.Op == wal.OpInsert {
			t.liveRows.Add(1)
		}
	}
	return true
}
