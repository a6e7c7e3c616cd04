package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/art"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// Dataless checkpoints and parallel recovery (Section 4.3).
//
// A checkpoint persists the indirection arrays -- each row's table, RID,
// permanent log address, CSN, record framing and index keys, delta-encoded
// (image.go) -- never record data. Recovery replays the log segments the
// checkpoint did not fence in parallel, using a newest-CSN-wins
// compare-and-swap per entry so the scattered multi-stream redo logs can be
// applied in any order, then fills the PIAs from the newest checkpoint image
// by the same rule, indexing each stub it stores by the image's keys, and
// last indexes the replayed tail's surviving rows. No checkpointed record is
// read: entries point back into the replicated log, and a row's first read
// faults it in through SRSS mmap views.

// Checkpoint writes a new checkpoint image and registers it in the
// manifest. It runs concurrently with forward processing: the image is a
// consistent view as of the returned checkpoint CSN.
//
// The checkpoint also fences the log for recovery: every log stream is
// rotated first, so all records in the pre-rotation segments have CSNs at
// or below the checkpoint CSN and are represented by (or superseded within)
// the checkpoint image. Recovery skips replaying fenced segments entirely
// -- they remain in place as version storage for lazy mmap reads ("the log
// is the database"), but contribute nothing to the RTO. This is what makes
// frequent checkpoints bound recovery time (Section 4.3, Figure 8).
func (e *Engine) Checkpoint() (uint64, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return e.checkpointLocked()
}

// checkpointLocked is Checkpoint's body; the caller holds ckptMu (log
// compaction takes a fresh checkpoint while already holding it).
func (e *Engine) checkpointLocked() (uint64, error) {
	ckptStart := time.Now()
	defer func() { e.mCheckpointDur.Record(int64(time.Since(ckptStart))) }()
	// Fence: after rotating every stream, all sealed segments are
	// permanently closed, and every record in them carries a CSN below
	// the reading of the clock that follows (a CSN is drawn under its
	// stream's enqueue lock, and rotation drains each stream's queue in
	// order).
	if err := e.log.RotateAll(); err != nil {
		return 0, err
	}
	fence := e.log.SealedSegments()
	ckptCSN := e.clk.Now()
	// Durability barrier: every version with CSN <= ckptCSN must be stamped
	// and durable when the walk below reaches it, so that the walk captures
	// a complete image of that prefix and recovery may skip ALL log records
	// with CSN <= ckptCSN -- which is what makes fencing (and the general
	// skip rule) safe against resurrecting deleted rows whose delete
	// records would otherwise be skipped while their older inserts are
	// replayed. Each stream holds its records in CSN order, so a marker
	// queued behind what every stream holds now completes after every such
	// commit has been stamped and has landed, and after every 2PC decision
	// at or below ckptCSN has been applied.
	if err := e.log.Flush(); err != nil {
		return 0, err
	}
	// Segments recovery still needs for 2PC state (undecided prepares,
	// retained decisions) must stay outside the fence. Every entry whose
	// records reached a sealed segment is registered with stable fields: a
	// record's completion runs before its stream seals its segment.
	fence = e.filterFence2PC(fence, ckptCSN)
	plog, err := e.svc.Create(srss.TierCompute)
	if err != nil {
		return 0, err
	}
	img := imageWriter{buf: make([]byte, 0, imageBlockSize+imageBlockSize/8)}
	img.buf = append(img.buf, checkpointHeader)
	entries := int64(0)
	flushes := 0
	flush := func() error {
		img.closeBlock()
		if len(img.buf) == 0 {
			return nil
		}
		if flushes > 0 {
			if err := e.svc.Chaos().Check(SiteCheckpointMid); err != nil {
				// Crash between image flushes: the partial checkpoint PLog
				// is never registered in the manifest, so recovery anchors
				// on the previous checkpoint.
				return err
			}
		}
		flushes++
		_, err := plog.Append(img.buf)
		img.buf = img.buf[:0]
		return err
	}

	e.mu.RLock()
	tables := make([]*Table, 0, len(e.tablesByID))
	for _, t := range e.tablesByID {
		tables = append(tables, t)
	}
	e.mu.RUnlock()

	// An entry's keys come from the version it records: resident in a live
	// engine, read through one windowed reader, in RID order, for a stub no
	// read has loaded since recovery.
	var ent imageEntry
	var view RowView
	var rd *wal.Reader
	var keys [][]byte
	for _, t := range tables {
		for len(keys) < len(t.indexes) {
			keys = append(keys, nil)
		}
		ent.table, ent.keys = t.ID, keys[:len(t.indexes)]
		var werr error
		t.rows.Range(func(rid RID, head *Version) bool {
			// Walk to the newest durable version visible at ckptCSN.
			for v := head; v != nil; v = v.next.Load() {
				ts := v.tmin.Load()
				if isTID(ts) || ts > ckptCSN {
					continue
				}
				addr := v.addr.Load()
				if addr == 0 {
					// Past the flush, no address means the append failed.
					werr = ErrDurabilityLost
					return false
				}
				if v.tomb {
					return true // a durable delete: omit the record entirely
				}
				p, ok := v.resident()
				if !ok {
					if rd == nil {
						rd = e.log.NewReader()
					}
					if p, werr = v.reload(rd); werr != nil {
						return false
					}
				}
				if _, werr = view.Reset(p); werr != nil {
					return false
				}
				for i, k := range ent.keys {
					if ent.keys[i], werr = view.AppendKey(k[:0], t.Schema.Indexes[i].Columns); werr != nil {
						return false
					}
				}
				ent.rid, ent.addr, ent.csn = rid, addr, ts
				ent.first, ent.n = v.flags.Load()&flagCSN != 0, len(p)
				img.add(&ent)
				entries++
				if len(img.buf) >= imageBlockSize {
					if werr = flush(); werr != nil {
						return false
					}
				}
				return true
			}
			return true
		})
		if werr != nil {
			return 0, werr
		}
	}
	if err := flush(); err != nil {
		return 0, err
	}
	plog.Seal()
	e.mCheckpointImage.Set(plog.Size())

	// Register in the manifest: ckpt PLog ID | csn | entry count | fenced
	// segment list.
	id := plog.ID()
	payload := make([]byte, 0, 24+20+len(fence)*3)
	payload = append(payload, id[:]...)
	payload = binary.AppendUvarint(payload, ckptCSN)
	payload = binary.AppendUvarint(payload, uint64(entries))
	payload = binary.AppendUvarint(payload, uint64(len(fence)))
	for _, seg := range fence {
		payload = binary.AppendUvarint(payload, uint64(seg))
	}
	if err := e.appendManifest(manifestCheckpoint, payload); err != nil {
		return 0, err
	}
	// The manifest names the new image now: the one it supersedes is no
	// recovery's anchor, and goes (a follower's mirror of it with it). A
	// delete that fails leaves an image nothing reads; the checkpoint stands.
	if !e.lastImage.IsZero() {
		_ = e.svc.Delete(e.lastImage)
	}
	e.lastImage = id
	e.lastCkpt.Store(ckptCSN)
	e.stats.Checkpoints.Add(1)
	e.mCheckpoints.Inc()
	return ckptCSN, nil
}

// RecoverOptions tunes recovery.
type RecoverOptions struct {
	// ReplayThreads is the number of parallel replay goroutines (Figure 8
	// sweeps this). Default 1 (serial replay, the baseline).
	ReplayThreads int

	// readOnly opens the log without streams and marks the engine a
	// replica (set by OpenReplica).
	readOnly bool
}

// RecoveryStats reports what recovery did.
type RecoveryStats struct {
	CheckpointCSN     uint64
	CheckpointEntries int64
	SegmentsScanned   int
	SegmentsSkipped   int
	RecordsScanned    int64
	RecordsApplied    int64
	MaxCSN            uint64
	// ReplayDuration runs from the start of log replay to the end of the
	// checkpoint image's pass, when the PIAs are up; CheckpointLoadDuration
	// is the image's pass, its keys included, and IndexDuration the tail's
	// keys after it.
	ReplayDuration         time.Duration
	CheckpointLoadDuration time.Duration
	IndexDuration          time.Duration
	// WindowReads counts the storage reads recovery issued against the log
	// (wal.Manager.WindowReads): about one per 256 KiB chunk of the tail the
	// replay passes over. No checkpointed record is read.
	WindowReads int64
	// IndexKeys counts the keys recovery inserted; ImageKeys those of them
	// it took from the checkpoint image, the rest coming from the replayed
	// tail's rows.
	IndexKeys int64
	ImageKeys int64
	// TornTails counts checksum-invalid segment tails (torn writes from a
	// crash mid-replication) that replay truncated at the last valid
	// record; TruncatedBytes is the total tail bytes dropped. Truncated
	// bytes were never acknowledged to any committer.
	TornTails      int64
	TruncatedBytes int64
	// InDoubt counts prepared-but-undecided global transactions
	// reconstructed from OpPrepare records (awaiting their coordinator).
	InDoubt int64
}

// RecoverByName rebuilds an engine whose manifest identity is registered in
// the SRSS management-node registry under cfg.Name (or "hiengine").
func RecoverByName(cfg Config, opt RecoverOptions) (*Engine, *RecoveryStats, error) {
	if cfg.Service == nil {
		return nil, nil, errors.New("core: Recover requires the SRSS service")
	}
	name := cfg.Name
	if name == "" {
		name = "hiengine"
	}
	id, ok := cfg.Service.WellKnown(name)
	if !ok {
		return nil, nil, fmt.Errorf("core: no engine %q registered with the management nodes", name)
	}
	return Recover(cfg, id, opt)
}

// Recover rebuilds an engine from its manifest PLog: catalog, the log
// applier's parallel pass over the tail, the checkpoint image, and the tail's
// index keys.
func Recover(cfg Config, manifestID srss.PLogID, opt RecoverOptions) (*Engine, *RecoveryStats, error) {
	a, stats, err := recoverLog(cfg, manifestID, opt)
	if err != nil {
		return nil, nil, err
	}
	return a.e, stats, nil
}

// recoverLog is Recover, returning the engine's log applier, which a replica
// keeps to go on applying the log (OpenReplica).
func recoverLog(cfg Config, manifestID srss.PLogID, opt RecoverOptions) (*applier, *RecoveryStats, error) {
	if cfg.Service == nil {
		return nil, nil, errors.New("core: Recover requires the SRSS service")
	}
	cfg.fill()
	if opt.ReplayThreads <= 0 {
		opt.ReplayThreads = 1
	}
	e := newEngine(cfg)
	manifest, err := e.svc.Open(manifestID)
	if err != nil {
		return nil, nil, err
	}
	e.manifest = manifest
	e.svc.SetWellKnown(cfg.Name, manifestID)

	a := &applier{
		e:          e,
		manifest:   manifestID,
		offsets:    make(map[uint16]int64),
		pendPrep:   make(map[string]prepared),
		pendForget: make(map[string]bool),
	}
	var walMeta, ckptID srss.PLogID
	var epoch, fencedBy, ckptEntries uint64
	if err := scanManifest(manifest, func(typ byte, payload []byte) error {
		switch typ {
		case manifestWAL:
			copy(walMeta[:], payload)
		case manifestEpoch:
			if e, n := binary.Uvarint(payload); n > 0 && e > epoch {
				epoch = e
			}
		case manifestFence:
			if f, n := binary.Uvarint(payload); n > 0 && f > fencedBy {
				fencedBy = f
			}
		case manifestShard:
			e.lastShardPayload = append([]byte(nil), payload...)
		case manifestTable:
			return e.addTable(payload)
		case manifestCheckpoint:
			if len(payload) < 24 {
				return fmt.Errorf("core: corrupt checkpoint manifest record")
			}
			e.lastCkptPayload = append([]byte(nil), payload...)
			copy(ckptID[:], payload[:24])
			pos := 24
			csn, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				return fmt.Errorf("core: corrupt checkpoint CSN")
			}
			pos += n
			a.skipCSN = csn
			if ckptEntries, n = binary.Uvarint(payload[pos:]); n > 0 {
				pos += n
			}
			a.fenced = map[uint16]bool{}
			if cnt, n := binary.Uvarint(payload[pos:]); n > 0 {
				pos += n
				for i := uint64(0); i < cnt; i++ {
					seg, n := binary.Uvarint(payload[pos:])
					if n <= 0 {
						return fmt.Errorf("core: corrupt checkpoint fence")
					}
					pos += n
					a.fenced[uint16(seg)] = true
				}
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if walMeta.IsZero() {
		return nil, nil, errors.New("core: manifest has no WAL record")
	}
	if epoch == 0 {
		epoch = 1 // pre-epoch manifest: the original lineage
	}
	e.epoch.Store(epoch)
	e.fencedBy.Store(fencedBy)

	var log *wal.Manager
	if opt.readOnly {
		e.readOnly.Store(true)
		log, err = wal.OpenReadOnly(e.walConfig(), walMeta)
	} else {
		log, err = wal.Reopen(e.walConfig(), walMeta)
	}
	if err != nil {
		return nil, nil, err
	}
	e.log = log

	stats := &RecoveryStats{}
	start := time.Now()

	// Phase 1: the applier's pass over the tail, into empty PIAs, newest CSN
	// wins. Segments fenced by the checkpoint are skipped: their records are
	// represented in (or superseded by) the checkpoint image; the segments
	// themselves stay available as version storage.
	a.maxCSN = a.skipCSN
	a.tables = maps.Clone(e.tablesByID)
	if _, err := a.pass(opt.ReplayThreads, stats); err != nil {
		return nil, nil, err
	}
	stats.TornTails, stats.TruncatedBytes = log.TailTruncations()
	stats.MaxCSN = a.maxCSN

	// Phase 2: the checkpoint image, in one pass: a stub, with its keys, for
	// every row the tail left no version as new (loadImage).
	var ix indexed
	if !ckptID.IsZero() {
		stats.CheckpointCSN = a.skipCSN
		loadStart := time.Now()
		if err := e.loadImage(ckptID, ckptEntries, opt.ReplayThreads, &ix); err != nil {
			return nil, nil, err
		}
		stats.CheckpointEntries = ix.entries
		stats.CheckpointLoadDuration = time.Since(loadStart)
	}
	stats.ReplayDuration = time.Since(start)

	// Resume CSN allocation above everything replayed.
	e.clk.AdvanceTo(stats.MaxCSN)

	// Phase 3: the tail's keys. Each version the replay installed that is
	// still its row's head is indexed from its resident payload, or cleared if
	// it is a delete.
	ixStart := time.Now()
	chunks := a.replayed
	a.replayed = nil
	if err := e.recoverParallel(opt.ReplayThreads, len(chunks), &ix, func(x *indexer, i int) error {
		return x.tail(chunks[i])
	}); err != nil {
		return nil, nil, err
	}
	stats.IndexKeys, stats.ImageKeys = ix.keys+ix.imageKeys, ix.imageKeys
	stats.IndexDuration = time.Since(ixStart)

	// Phase 4, on a writable engine: the end of the log (a replica's comes
	// at Promote).
	if !opt.readOnly {
		if stats.InDoubt, err = a.settle(); err != nil {
			return nil, nil, err
		}
	}
	a.live = true
	stats.WindowReads = log.WindowReads()
	e.obs.Gauge("core.recover_load_ns").Set(int64(stats.CheckpointLoadDuration))
	e.obs.Gauge("core.recover_replay_ns").Set(int64(stats.ReplayDuration - stats.CheckpointLoadDuration))
	e.obs.Gauge("core.recover_index_ns").Set(int64(stats.IndexDuration))
	e.obs.Gauge("core.recover_image_keys").Set(stats.ImageKeys)
	if !opt.readOnly && cfg.GCEveryNCommits > 0 {
		e.startMaintenance(e.seedDeadLog(ix.live))
	}
	return a, stats, nil
}

// loadImage is recovery's one pass over the checkpoint image id, which the
// manifest says holds want entries, on threads goroutines, a block each at a
// time. An entry becomes a stub in its row's PIA slot unless the replay left a
// version there at least as new: the tail's records are newer than the image's
// except a retained 2PC write replayed at its decision CSN, which the image
// supersedes when the row was updated before the checkpoint, and equals when
// not. A stub it stores is indexed by the entry's keys.
func (e *Engine) loadImage(id srss.PLogID, want uint64, threads int, out *indexed) error {
	plog, err := e.svc.Open(id)
	if err != nil {
		return err
	}
	v := plog.Mmap()
	size := v.Len()
	if size == 0 {
		return nil
	}
	b, err := v.At(0, int(size))
	if err != nil {
		return err
	}
	if b[0] != checkpointHeader {
		return fmt.Errorf("core: bad checkpoint header %#x", b[0])
	}
	e.mCheckpointImage.Set(size)
	e.lastImage = id
	blocks, err := imageBlocks(b[1:])
	if err != nil {
		return err
	}
	if err := e.recoverParallel(threads, len(blocks), out, func(x *indexer, i int) error {
		return x.loadBlock(blocks[i])
	}); err != nil {
		return err
	}
	if uint64(out.entries) != want {
		return fmt.Errorf("core: checkpoint image holds %d entries, its manifest record %d", out.entries, want)
	}
	return nil
}

// recoverParallel runs work on the items [0, n) on threads goroutines, each
// with an indexer of its own, which take the items one at a time. It adds
// what the indexers counted to out and returns the first error.
func (e *Engine) recoverParallel(threads, n int, out *indexed, work func(x *indexer, i int) error) error {
	var at atomic.Int64
	var mu sync.Mutex
	errs := make(chan error, threads)
	for w := 0; w < threads; w++ {
		go func() {
			x := indexer{e: e}
			var err error
			for i := int(at.Add(1) - 1); i < n && err == nil; i = int(at.Add(1) - 1) {
				err = work(&x, i)
			}
			mu.Lock()
			out.add(&x.indexed)
			mu.Unlock()
			errs <- err
		}()
	}
	var err error
	for w := 0; w < threads; w++ {
		err = cmp.Or(err, <-errs)
	}
	return err
}

// indexChunk is the replayed versions an index worker takes at a time.
const indexChunk = 512

// indexed is what recovery's image pass and index phase did: the image
// entries read, the keys inserted from the image and from rows, and by
// segment id the bytes of the records its rows live in, which seed the
// dead-log ledger.
type indexed struct {
	entries, imageKeys, keys int64
	live                     []int64
}

// add adds x's counts to o's.
func (o *indexed) add(x *indexed) {
	o.entries += x.entries
	o.imageKeys += x.imageKeys
	o.keys += x.keys
	if len(x.live) > len(o.live) {
		o.live = append(o.live, make([]int64, len(x.live)-len(o.live))...)
	}
	for s, n := range x.live {
		o.live[s] += n
	}
}

// indexer is one recovery worker's state.
type indexer struct {
	indexed
	e    *Engine
	img  imageReader
	view RowView
	kbuf []byte
	hint art.Hint // the index nodes x's inserts last filled
	t    *Table   // the table whose live rows x counts
	rows int64    // the live rows of t counted since x moved to it
	// The image entries of t read but not stored yet: RIDs, stubs, and the
	// keys, end to end in keyBytes, keyEnds[i] the end of the i-th.
	rids     []RID
	stubs    []*Version
	keyBytes []byte
	keyEnds  []int
}

// countFor makes t the table whose live rows x counts, booking those counted
// so far against theirs.
func (x *indexer) countFor(t *Table) {
	if x.t == t {
		return
	}
	x.bookRows()
	x.t = t
}

// bookRows books the live rows counted against their table.
func (x *indexer) bookRows() {
	if x.t != nil {
		x.t.liveRows.Add(x.rows)
	}
	x.t, x.rows = nil, 0
}

// book counts n bytes of the record at addr live.
func (x *indexer) book(addr uint64, n int64) {
	seg := int(wal.Addr(addr).Segment())
	if seg >= len(x.live) {
		x.live = append(x.live, make([]int64, seg+1-len(x.live))...)
	}
	x.live[seg] += n
}

// loadBlock loads one image block: its entries' stubs, stored a table run at
// a time (store), and their keys.
func (x *indexer) loadBlock(body []byte) error {
	defer x.bookRows()
	var t *Table
	err := x.img.readBlock(body, true, func(en *imageEntry) error {
		x.entries++
		if t == nil || t.ID != en.table {
			if err := x.store(); err != nil {
				return err
			}
			if t, _ = x.e.tableByID(en.table); t == nil {
				return nil
			}
			if len(en.keys) != len(t.indexes) {
				return fmt.Errorf("core: checkpoint image has %d keys per row of table %q, which has %d indexes",
					len(en.keys), t.Schema.Name, len(t.indexes))
			}
			x.countFor(t)
		}
		stub := &Version{}
		stub.tmin.Store(en.csn)
		stub.addr.Store(en.addr)
		stub.n.Store(uint32(en.n))
		f := flagImage
		if en.first {
			f |= flagCSN
		}
		stub.flags.Store(f)
		x.rids, x.stubs = append(x.rids, en.rid), append(x.stubs, stub)
		for i, k := range en.keys {
			if x.keyBytes = append(x.keyBytes, k...); !t.Schema.Indexes[i].Unique {
				x.keyBytes = EncodeRIDSuffix(x.keyBytes, uint64(en.rid))
			}
			x.keyEnds = append(x.keyEnds, len(x.keyBytes))
		}
		return nil
	})
	if err != nil {
		return err
	}
	return x.store()
}

// store stores the counted table's pending stubs in its PIA, each unless its
// slot holds a version at least as new, and indexes those it stored.
func (x *indexer) store() error {
	t := x.t
	defer func() {
		x.rids, x.stubs, x.keyBytes, x.keyEnds = x.rids[:0], x.stubs[:0], x.keyBytes[:0], x.keyEnds[:0]
	}()
	if len(x.rids) == 0 {
		return nil
	}
	if err := t.rows.StoreRun(x.rids, x.stubs, func(have, stub *Version) bool {
		return have.tmin.Load() >= stub.tmin.Load()
	}); err != nil {
		return err
	}
	n := len(t.indexes)
	for i, stub := range x.stubs {
		if stub == nil {
			continue // the replay's version stays
		}
		rid, start := x.rids[i], 0
		if i > 0 && n > 0 {
			start = x.keyEnds[i*n-1]
		}
		for j, end := range x.keyEnds[i*n : (i+1)*n] {
			if err := t.indexes[j].InsertHint(x.keyBytes[start:end], uint64(rid), &x.hint); err != nil {
				return err
			}
			start = end
		}
		x.imageKeys += int64(n)
		x.rows++
		x.book(stub.addr.Load(), stub.logLen(t.ID, rid))
	}
	return nil
}

// tail indexes the versions of one chunk the replay installed that are still
// their rows' heads, by their payloads, which the replay left resident, and
// clears those that are deletes.
func (x *indexer) tail(vs []replayed) error {
	defer x.bookRows()
	for _, r := range vs {
		t, rid, v := r.t, r.rid, r.v
		if t.rows.Get(rid) != v {
			continue // superseded: by a newer record, or by the image
		}
		if v.tomb {
			_, _ = t.rows.DeleteIf(rid, v)
			continue
		}
		x.countFor(t)
		p, err := v.payload(x.e)
		if err != nil {
			return err
		}
		if _, err := x.view.Reset(p); err != nil {
			return err
		}
		for i, ix := range t.indexes {
			if x.kbuf, err = t.viewIndexKeyAppend(x.kbuf[:0], i, &x.view, rid); err != nil {
				return err
			}
			if err := ix.InsertHint(x.kbuf, uint64(rid), &x.hint); err != nil {
				return err
			}
		}
		x.keys += int64(len(t.indexes))
		x.rows++
		x.book(v.addr.Load(), v.logLen(t.ID, rid))
	}
	return nil
}

// segmentSize returns a segment's byte size (0 when unresolvable).
func segmentSize(e *Engine, seg uint16) int64 {
	id, ok := e.log.Directory().Lookup(seg)
	if !ok {
		return 0
	}
	p, err := e.svc.Open(id)
	if err != nil {
		return 0
	}
	return p.Size()
}

// scanManifest iterates manifest records.
func scanManifest(p *srss.PLog, fn func(typ byte, payload []byte) error) error {
	size := p.Size()
	if size == 0 {
		return nil
	}
	b := make([]byte, size)
	if _, err := p.ReadAt(b, 0); err != nil {
		return err
	}
	pos := 0
	for pos < len(b) {
		start := pos
		typ := b[pos]
		pos++
		l, w := binary.Uvarint(b[pos:])
		if w <= 0 || pos+w+int(l) > len(b) {
			// A record cut short at the very tail of a torn (half-replicated)
			// PLog was never acknowledged: the append crashed mid-replication
			// and the operation it was part of failed with it. Truncate
			// logically, exactly like the WAL torn-tail rule. Genuine
			// corruption (replicas agree on the bytes) still errors.
			if p.Torn() || !p.ReplicasConsistentFrom(int64(start)) {
				return nil
			}
			return fmt.Errorf("core: corrupt manifest at %d", pos)
		}
		pos += w
		if err := fn(typ, b[pos:pos+int(l)]); err != nil {
			return err
		}
		pos += int(l)
	}
	return nil
}
