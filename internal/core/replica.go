package core

import (
	"encoding/binary"
	"errors"

	"hiengine/internal/srss"
)

// Read-only replicas (Section 3.1): additional compute-side instances can
// be spawned on demand by loading state from the shared log. A replica
// recovers from the primary's manifest, opens the log read-only, and then
// follows it: CatchUp is recovery's log applier run again over what the
// primary appended since (apply.go). Replica freshness is whatever the
// catch-up cadence makes it -- the paper's point that applications not
// needing high freshness can run cheap replicas.

// ErrReadOnlyReplica is returned for write operations on a replica.
var ErrReadOnlyReplica = errors.New("core: engine is a read-only replica")

// ErrStaleEpoch is returned when a node refuses work because a newer
// primary epoch than its own has been observed: the caller is talking to
// (or is) the losing side of a failover and must rediscover the current
// primary rather than retry here.
var ErrStaleEpoch = errors.New("core: stale primary epoch")

// Replica is a read-only follower of a primary engine sharing the same
// SRSS deployment: the log applier its recovery ran, kept going.
type Replica struct {
	*applier
}

// OpenReplica spawns a read-only replica from the primary's manifest. The
// replica shares the primary's SRSS service (the shared log is the state
// transfer medium); it creates no segments and never writes.
func OpenReplica(cfg Config, manifestID srss.PLogID, opt RecoverOptions) (*Replica, *RecoveryStats, error) {
	opt.readOnly = true
	a, stats, err := recoverLog(cfg, manifestID, opt)
	if err != nil {
		return nil, nil, err
	}
	return &Replica{a}, stats, nil
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

// CatchUp runs the applier's pass over what the primary appended since the
// last one -- the first resumes where OpenReplica's recovery stopped -- and
// returns the number of records applied. Readers run throughout: a record
// goes on top of its row's chain as a commit's write would, and GC, after
// the pass, reclaims what no snapshot needs.
func (r *Replica) CatchUp() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Pick up segments the primary created since we last looked.
	if err := r.e.log.RefreshDirectory(); err != nil {
		return 0, err
	}
	var st RecoveryStats
	stalled, err := r.pass(1, &st)
	if stalled && err == nil && r.refreshCatalog() == nil {
		// DDL ran on the primary after the catalog was read: the stalled
		// scans resume with the new tables. One whose table record has not
		// shipped yet stalls again, its offset at the record, until a later
		// pass -- skipping it would drop a row and advance the watermark over
		// an unapplied commit.
		_, err = r.pass(1, &st)
	}
	r.e.clk.AdvanceTo(r.maxCSN)
	r.e.gcWorker(0, r.e.watermark())
	return st.RecordsApplied, err
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
	// The end of the shipped log: prepares whose decisions never arrived
	// become in-doubt transactions for the coordinator to resolve here.
	if _, err := r.settle(); err != nil {
		return 0, err
	}
	e.readOnly.Store(false)
	return epoch, nil
}
