package core

import "time"

// Epoch-based garbage collection (Section 4.4). Each worker keeps a bag of
// retired versions stamped with the CSN of the transaction that superseded
// them. A version is reclaimable once that CSN is at or below the low
// watermark -- the minimum begin timestamp across active transactions (the
// minimum readCSN across workers in the paper). Reclamation is interspersed
// with forward processing: workers drain their own bags every
// GCEveryNCommits commits, and RunGC drains everything (the background
// flavor).

type retiredVersion struct {
	// owner is the version whose next pointer still references victim;
	// pruning truncates the chain below owner.
	owner  *Version
	victim *Version
	// retireCSN is the CSN of the superseding transaction.
	retireCSN uint64

	// Delete-specific cleanup: clear the PIA entry once the delete marker
	// itself is invisible to everyone.
	table    *Table
	rid      RID
	isDelete bool

	// keysChanged says victim's row carries index keys its successor's does
	// not: their entries are removed alongside the victim.
	keysChanged bool
}

// maybeGC runs an incremental GC pass on the worker's bag every N commits.
func (e *Engine) maybeGC(worker int) {
	if e.cfg.GCEveryNCommits <= 0 {
		return
	}
	slot := &e.workers[worker]
	slot.mu.Lock()
	slot.commitCounter++
	due := slot.commitCounter >= e.cfg.GCEveryNCommits && len(slot.retired) > 0
	if due {
		slot.commitCounter = 0
	}
	slot.mu.Unlock()
	if due {
		e.gcWorker(worker, e.watermark())
	}
}

// RunGC drains every worker's bag against the current watermark and returns
// the number of versions reclaimed.
func (e *Engine) RunGC() int {
	wm := e.watermark()
	n := 0
	for w := range e.workers {
		n += e.gcWorker(w, wm)
	}
	return n
}

// gcWorker reclaims every entry in worker w's bag with retireCSN <= wm.
func (e *Engine) gcWorker(w int, wm uint64) int {
	gcStart := time.Now()
	defer func() { e.mGCPause.Record(int64(time.Since(gcStart))) }()
	slot := &e.workers[w]
	// The bag keeps its entries not yet due in place and moves the due ones
	// to the slot's reap scratch, taken here and given back below, so a
	// steady-state pass allocates nothing. Both are cleared past what they
	// hold, so no reclaimed version stays reachable from the slot.
	slot.mu.Lock()
	bag, reap := slot.retired, slot.reap
	slot.reap = nil
	keep := bag[:0]
	for _, r := range bag {
		if r.retireCSN <= wm {
			reap = append(reap, r)
		} else {
			keep = append(keep, r)
		}
	}
	clear(bag[len(keep):])
	slot.retired = keep
	slot.mu.Unlock()

	reclaimed := 0
	var u keyScratch
	// The pass's dead log bytes, booked at its end: GC prunes durable
	// versions, and the log holds their records until a compaction.
	var dead deadTally
	count := e.dead != nil
	for _, r := range reap {
		if r.isDelete {
			// The delete marker is invisible to every active snapshot:
			// clear the indirection entry if the marker is still the
			// head (a later insert may have reused the RID). Clearing
			// unlinks the marker AND every version still chained below
			// it, so count the full chain -- mirroring the update path
			// -- not just the cleared entry.
			if ok, _ := r.table.rows.DeleteIf(r.rid, r.victim); ok {
				for v := r.victim; v != nil; v = v.next.Load() {
					e.dropPrivate(v)
					if count {
						dead.version(e, r.table.ID, r.rid, v)
					}
					reclaimed++
				}
			}
			continue
		}
		// Remove stale index keys BEFORE pruning the chain: readers skip
		// key verification on single-version chains, which is only sound
		// if no stale entry can outlive the chain's extra versions
		// (sequentially consistent atomics make this ordering visible), and
		// if a reader that read an entry before its removal knows a removal
		// ran (Table.dropsBegun). The stale keys are the victim's that no
		// row above it carries too (an A->B->A key flip re-validated the
		// entry, or a newer insert reused the RID with the same key). The
		// prune unlinks every version below the victim as well, whose own
		// bag entries may not be due yet (another worker's bag), so the
		// stale keys of those marked flagKeysChanged go now too.
		unlink := r.owner != nil && r.owner.next.Load() == r.victim
		var below *Version
		if unlink {
			below = r.victim.next.Load()
		}
		drops := r.keysChanged
		for v := below; v != nil && !drops; v = v.next.Load() {
			drops = v.has(flagKeysChanged)
		}
		if drops {
			r.table.dropsBegun.Add(1)
			if r.keysChanged {
				e.dropKeysOf(&u, r.table, r.rid, r.victim, r.victim)
			}
			for v := below; v != nil; v = v.next.Load() {
				if v.has(flagKeysChanged) {
					e.dropKeysOf(&u, r.table, r.rid, v, r.victim)
				}
			}
		}
		// Prune the chain below the superseding version: victim and
		// everything older is unreachable by any current or future
		// snapshot.
		if unlink {
			r.owner.next.Store(nil)
			for v := r.victim; v != nil; v = v.next.Load() {
				e.dropPrivate(v)
				if count {
					dead.version(e, r.table.ID, r.rid, v)
				}
				reclaimed++
			}
		}
		if drops {
			r.table.dropsEnded.Add(1)
		}
	}
	clear(reap)
	slot.mu.Lock()
	slot.reap = reap[:0]
	slot.mu.Unlock()
	if count && (dead.n > 0 || e.dead.due.Load()) {
		e.flushDead(&dead)
	}
	if reclaimed > 0 {
		e.mReclaimed.Add(int64(reclaimed))
	}
	return reclaimed
}
