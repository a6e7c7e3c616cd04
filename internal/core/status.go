package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A TID names the worker slot its transaction began on and the slot's
// sequence number for it: tidFlag | slot<<tidSlotShift | seq. A reader that
// meets a TID in a version's tmin resolves it through that slot, which holds
// its live transaction's TID and status word (workerSlot.tid, .status): the
// per-worker transaction context of Section 5.1. A slot moves on to its next
// transaction only once the last one has stamped its CSN into its versions or
// uninstalled them, so a TID the slot no longer holds is one whose tmin has
// changed -- unless its transaction is a prepared 2PC participant, which
// outlives its slot's use of it: those, and the in-doubt ones recovery
// rebuilds, resolve through the engine's side table (tidTable).
const (
	tidSlotShift = 47
	tidSeqMask   = 1<<tidSlotShift - 1
	// slotless is the slot index of a TID no worker slot holds: an in-doubt
	// transaction's, or an imported row's (ownerlessTID). It bounds the
	// worker count.
	slotless = 1<<16 - 1
	// ownerlessTID is the TID of a row ImportRow has reserved and not yet
	// landed: no transaction has it, so readers skip the row and writers
	// conflict on it.
	ownerlessTID = tidFlag | slotless<<tidSlotShift
)

func makeTID(slot int, seq uint64) uint64 {
	return tidFlag | uint64(slot)<<tidSlotShift | seq&tidSeqMask
}

func tidSlot(tid uint64) int { return int(tid &^ tidFlag >> tidSlotShift) }

// slotReadHook, when set, runs between a reader's first load of a slot's TID
// and its load of the slot's status word (resolve): the test seam for a slot
// that moves on under a reader.
var slotReadHook atomic.Pointer[func()]

// resolve returns the state and CSN of the transaction whose TID is tid, as
// of the call, and false when neither its slot nor the side table holds it
// any longer: it has stamped its CSN into its versions, or uninstalled them,
// so the caller reads tmin again. The slot is read TID, status, TID: a status
// read between two loads of the same TID is that transaction's, since a slot
// stores its next TID before its next status (Engine.BeginInto).
func (e *Engine) resolve(tid uint64) (state, csn uint64, ok bool) {
	if i := tidSlot(tid); i < len(e.workers) {
		s := &e.workers[i]
		if s.tid.Load() == tid {
			if h := slotReadHook.Load(); h != nil {
				(*h)()
			}
			w := s.status.Load()
			if s.tid.Load() == tid {
				return statusState(w), statusCSN(w), true
			}
		}
	}
	return e.side.lookup(tid)
}

// visibleTID reports whether the version v, whose tmin read raw (another
// transaction's TID), is visible at snapshot begin. Another transaction's
// write is visible once its CSN is drawn at or below the snapshot, before it
// is durable (Section 5.2's early commit); an active, prepared or aborted
// one's is not.
func (e *Engine) visibleTID(v *Version, raw, begin uint64) bool {
	for {
		st, csn, ok := e.resolve(raw)
		if !ok {
			// Gone from its slot and the side table: stamped, or uninstalled
			// (an abort, an import that failed) and invisible for good.
			if now := v.tmin.Load(); !isTID(now) {
				return now <= begin
			}
			return false
		}
		switch st {
		case txPrecommitted, txCommitted:
			if csn == 0 {
				// Committing, CSN not drawn yet (writeSet.onStamp): whether it
				// lands at or below begin is not knowable; ask again.
				runtime.Gosched()
				continue
			}
			return csn <= begin
		default: // aborted or active
			return false
		}
	}
}

// tidTable is the side table: the status words of transactions whose TIDs
// no worker slot answers for -- prepared 2PC participants, from their vote
// until their decision is applied, and the in-doubt transactions recovery
// rebuilds, which get slotless TIDs from it. It stays as small as the
// in-doubt list.
type tidTable struct {
	mu  sync.Mutex
	m   map[uint64]uint64 // TID -> status word
	seq uint64            // the last slotless TID's sequence
}

// lookup is resolve's fallback for a TID its slot does not hold.
func (s *tidTable) lookup(tid uint64) (state, csn uint64, ok bool) {
	s.mu.Lock()
	w, ok := s.m[tid]
	s.mu.Unlock()
	return statusState(w), statusCSN(w), ok
}

// set records tid's status word.
func (s *tidTable) set(tid, status uint64) {
	s.mu.Lock()
	s.m[tid] = status
	s.mu.Unlock()
}

// remove drops tid once its versions carry its CSN or are gone.
func (s *tidTable) remove(tid uint64) {
	s.mu.Lock()
	delete(s.m, tid)
	s.mu.Unlock()
}

// newTID returns a slotless TID no other transaction has had, entered as
// active.
func (s *tidTable) newTID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	tid := makeTID(slotless, s.seq)
	s.m[tid] = packStatus(txActive, 0)
	return tid
}
