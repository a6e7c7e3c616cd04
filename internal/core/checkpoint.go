package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/index"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// Dataless checkpoints and parallel recovery (Section 4.3).
//
// A checkpoint persists only the indirection arrays -- (table, RID,
// permanent log address, CSN) tuples, delta-encoded (imageWriter) -- never
// record data. Recovery
// reconstructs the PIAs from the newest checkpoint image and then replays
// log segments in parallel, using a newest-CSN-wins compare-and-swap per
// entry so the scattered multi-stream redo logs can be applied in any
// order. No record data is loaded: entries point back into the replicated
// log, and later accesses fault data in through SRSS mmap views.

const checkpointHeader byte = 'K'

// The checkpoint image, after its header byte, is a sequence of table runs:
// a uvarint table ID, the table's entries in ascending RID order, and a
// uvarint 0. An entry is
//
//   - uvarint delta<<1 | switched: delta (>= 1) is the RID minus the run's
//     previous RID (0 before the first); switched says the entry's segment
//     key differs from the image's previous entry's, and then
//   - uvarint key: addr>>32, the segment key (the first entry compares
//     with key 0);
//   - varint (zigzag) offset delta: addr's low 32 bits minus the offset of
//     the image's last entry under the same key (0 before the first);
//   - varint (zigzag) CSN delta against that same entry, modulo 2^64.
//
// Rows in RID order lie in log order within each stream's segments, so an
// entry is mostly a one-byte RID delta, a record's length and a CSN delta of
// 0: three to five bytes where four plain uvarints took 12-14. SRSS is
// memory-only, so no image of an older format ever has to load.

// maxImageRID is the largest RID a PIA addresses: a 16-bit partition and a
// 32-bit slot.
const maxImageRID = 1<<48 - 1

// imageCursor is the last entry under one segment key: what the next one's
// offset and CSN are encoded against.
type imageCursor struct{ off, csn uint64 }

// imageWriter encodes a checkpoint image into buf.
type imageWriter struct {
	buf   []byte
	run   bool // a table run is open
	table uint32
	rid   RID
	key   uint64
	cur   *imageCursor // key's cursor
	last  map[uint64]*imageCursor
}

// cursorOf returns segment key k's cursor in m, adding a zero one.
func cursorOf(m map[uint64]*imageCursor, k uint64) *imageCursor {
	c := m[k]
	if c == nil {
		c = new(imageCursor)
		m[k] = c
	}
	return c
}

// add appends one entry. Within a table run RIDs must ascend strictly.
func (w *imageWriter) add(table uint32, rid RID, addr, csn uint64) {
	if w.last == nil {
		w.last = map[uint64]*imageCursor{}
		w.cur = cursorOf(w.last, 0)
	}
	if !w.run || table != w.table {
		w.end()
		w.buf = binary.AppendUvarint(w.buf, uint64(table))
		w.run, w.table, w.rid = true, table, 0
	}
	key, off := addr>>32, addr&math.MaxUint32
	head := uint64(rid-w.rid) << 1
	if key != w.key {
		w.buf = binary.AppendUvarint(w.buf, head|1)
		w.buf = binary.AppendUvarint(w.buf, key)
		w.key, w.cur = key, cursorOf(w.last, key)
	} else {
		w.buf = binary.AppendUvarint(w.buf, head)
	}
	w.buf = binary.AppendVarint(w.buf, int64(off-w.cur.off))
	w.buf = binary.AppendVarint(w.buf, int64(csn-w.cur.csn))
	w.cur.off, w.cur.csn, w.rid = off, csn, rid
}

// end closes the open table run, if any.
func (w *imageWriter) end() {
	if w.run {
		w.buf = append(w.buf, 0)
		w.run = false
	}
}

// imageReader decodes varints off a checkpoint image; the first error sticks.
type imageReader struct {
	b   []byte
	pos int
	err error
}

func (r *imageReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: corrupt checkpoint image: %s at byte %d", what, r.pos+1)
	}
}

func (r *imageReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return x
}

func (r *imageReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return x
}

// readImage hands fn every entry of a checkpoint image (b is the bytes after
// its header). Bytes that are not an image are an error, never a panic: a
// varint cut short or overlong, a run without its end, a RID delta of 0 or
// one past 48 bits, a segment key past 32 bits, an offset outside
// [0, 2^32).
func readImage(b []byte, fn func(table uint32, rid RID, addr, csn uint64) error) error {
	r := imageReader{b: b}
	last := map[uint64]*imageCursor{}
	key, cur := uint64(0), cursorOf(last, 0)
	for r.pos < len(b) {
		table := r.uvarint()
		if table > math.MaxUint32 {
			r.fail("table id past 32 bits")
		}
		var rid uint64
		for {
			head := r.uvarint()
			if r.err != nil {
				return r.err
			}
			if head == 0 {
				break
			}
			d := head >> 1
			if d == 0 || d > maxImageRID-rid {
				r.fail("RID delta out of range")
				return r.err
			}
			rid += d
			if head&1 != 0 {
				if key = r.uvarint(); key > math.MaxUint32 {
					r.fail("segment key past 32 bits")
				}
				cur = cursorOf(last, key)
			}
			dOff, dCSN := r.varint(), r.varint()
			if r.err != nil {
				return r.err
			}
			off := int64(cur.off) + dOff
			if off < 0 || off > math.MaxUint32 {
				r.fail("offset out of range")
				return r.err
			}
			cur.off, cur.csn = uint64(off), cur.csn+uint64(dCSN)
			if err := fn(uint32(table), RID(rid), key<<32|cur.off, cur.csn); err != nil {
				return err
			}
		}
	}
	return nil
}

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
	// the reading of the clock that follows (appends carry CSNs acquired
	// before they are queued, and rotation drains each stream's queue in
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
	// replayed. Stamped: a commit at or below ckptCSN raised its slot's flag
	// before drawing the CSN, so before the clock was read; once the slot is
	// seen quiet its versions carry the CSN. Durable: the walk waits for
	// each such version's own address (durableAddr). The count of started
	// commits is waited for as well, for what it guarantees the 2PC filter
	// below; on its own it is no barrier, since a commit started after the
	// count was read can stand in for an earlier one still in flight.
	for i := range e.workers {
		for e.workers[i].stamping.Load() {
			runtime.Gosched()
		}
	}
	target := e.commitsStarted.Load()
	for e.commitsDurable.Load() < target {
		runtime.Gosched()
	}
	// Segments recovery still needs for 2PC state (undecided prepares,
	// retained decisions) must stay outside the fence. The barrier above
	// guarantees every entry whose records reached a sealed segment is
	// registered with stable fields.
	fence = e.filterFence2PC(fence, ckptCSN)
	plog, err := e.svc.Create(srss.TierCompute)
	if err != nil {
		return 0, err
	}
	img := imageWriter{buf: make([]byte, 0, 64<<10)}
	img.buf = append(img.buf, checkpointHeader)
	entries := int64(0)
	flushes := 0
	flush := func() error {
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

	for _, t := range tables {
		var werr error
		t.rows.Range(func(rid RID, head *Version) bool {
			// Walk to the newest durable version visible at ckptCSN.
			for v := head; v != nil; v = v.next.Load() {
				ts := v.tmin.Load()
				if isTID(ts) || ts > ckptCSN {
					continue
				}
				addr, err := e.durableAddr(v)
				if err != nil {
					werr = err
					return false
				}
				if v.tomb {
					return true // a durable delete: omit the record entirely
				}
				img.add(t.ID, rid, addr, ts)
				entries++
				if len(img.buf) >= 64<<10 {
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
	img.end()
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
	// ReplayDuration runs from the start of the checkpoint load to the end
	// of log replay (CheckpointLoadDuration is its first part);
	// IndexDuration is the index rebuild after it.
	ReplayDuration         time.Duration
	CheckpointLoadDuration time.Duration
	IndexDuration          time.Duration
	// WindowReads counts the storage reads recovery issued against the log
	// (wal.Manager.WindowReads): about one per 256 KiB chunk a thread passes
	// over, whatever the row count. IndexKeys counts the keys the rebuild
	// inserted.
	WindowReads int64
	IndexKeys   int64
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

// Recover rebuilds an engine from its manifest PLog: catalog, checkpoint
// image, the log applier's parallel pass, and the index rebuild.
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
	var epoch, fencedBy uint64
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
			if _, n = binary.Uvarint(payload[pos:]); n > 0 { // entry count
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

	// Phase 1: load the checkpoint image (addresses only -- dataless).
	if !ckptID.IsZero() {
		stats.CheckpointCSN = a.skipCSN
		n, err := e.loadCheckpoint(ckptID)
		if err != nil {
			return nil, nil, err
		}
		stats.CheckpointEntries = n
		stats.CheckpointLoadDuration = time.Since(start)
	}

	// Phase 2: the applier's pass, newest CSN wins. Segments fenced by the
	// checkpoint are skipped: their records are represented in (or
	// superseded by) the checkpoint image; the segments themselves stay
	// available as version storage.
	a.maxCSN = a.skipCSN
	a.tables = maps.Clone(e.tablesByID)
	if _, err := a.pass(opt.ReplayThreads, stats); err != nil {
		return nil, nil, err
	}
	stats.TornTails, stats.TruncatedBytes = log.TailTruncations()
	stats.MaxCSN = a.maxCSN

	// Phase 3: clear tombstone heads (deletes).
	for _, t := range e.tablesByID {
		var live int64
		t.rows.RangeAll(func(rid RID, v *Version) bool {
			if v != nil && v.tomb {
				_, _ = t.rows.DeleteIf(rid, v)
			} else if v != nil {
				live++
			}
			return true
		})
		t.liveRows.Store(live)
	}
	stats.ReplayDuration = time.Since(start)

	// Resume CSN allocation above everything replayed.
	e.clk.AdvanceTo(stats.MaxCSN)

	// Phase 4: rebuild in-memory indexes by scanning the PIAs.
	ixStart := time.Now()
	var live []int64
	if stats.IndexKeys, live, err = e.rebuildIndexes(opt.ReplayThreads); err != nil {
		return nil, nil, err
	}
	stats.IndexDuration = time.Since(ixStart)

	// Phase 5, on a writable engine: the end of the log (a replica's comes
	// at Promote).
	if !opt.readOnly {
		if stats.InDoubt, err = a.settle(); err != nil {
			return nil, nil, err
		}
	}
	a.live = true
	stats.WindowReads = log.WindowReads()
	if !opt.readOnly && cfg.GCEveryNCommits > 0 {
		e.startMaintenance(e.seedDeadLog(live))
	}
	return a, stats, nil
}

// durableAddr returns v's permanent log address, waiting for it if v's
// commit has stamped its CSN but the log has not reported it durable yet.
func (e *Engine) durableAddr(v *Version) (uint64, error) {
	for {
		if addr := v.addr.Load(); addr != 0 {
			return addr, nil
		}
		if e.durabilityLost.Load() {
			return 0, ErrDurabilityLost // the append failed: no address will come
		}
		runtime.Gosched()
	}
}

// loadCheckpoint reads a checkpoint image into the PIAs.
func (e *Engine) loadCheckpoint(id srss.PLogID) (int64, error) {
	plog, err := e.svc.Open(id)
	if err != nil {
		return 0, err
	}
	v := plog.Mmap()
	size := v.Len()
	if size == 0 {
		return 0, nil
	}
	b, err := v.At(0, int(size))
	if err != nil {
		return 0, err
	}
	if b[0] != checkpointHeader {
		return 0, fmt.Errorf("core: bad checkpoint header %#x", b[0])
	}
	e.mCheckpointImage.Set(size)
	e.lastImage = id
	var n int64
	var t *Table
	err = readImage(b[1:], func(table uint32, rid RID, addr, csn uint64) error {
		if t == nil || t.ID != table {
			// The image is written table by table: look each up once.
			if t, _ = e.tableByID(table); t == nil {
				return nil
			}
		}
		if err := t.rows.AllocAt(rid); err != nil {
			return err
		}
		stub := &Version{}
		stub.tmin.Store(csn)
		stub.addr.Store(addr)
		if err := t.rows.Store(rid, stub); err != nil {
			return err
		}
		n++
		return nil
	})
	return n, err
}

// rebuildChunk is the rows a rebuild worker takes at a time: one channel
// send and one pin per index for that many rows, not per row -- at a few
// hundred nanoseconds of work per key either would otherwise dominate.
const rebuildChunk = 512

// rebuilder is one rebuild worker's state.
type rebuilder struct {
	log  *wal.Reader
	view RowView
	kbuf []byte
	// live is, by segment id, the bytes of the records of the rows it added.
	live []int64
}

// add indexes one row version in every index of its table, through the
// loaders its chunk holds on them.
func (r *rebuilder) add(t *Table, loaders []index.Loader, rid RID, v *Version) error {
	p, ok := v.resident()
	if !ok {
		var err error
		if p, err = v.reload(r.log); err != nil {
			return err
		}
	}
	seg := int(wal.Addr(v.addr.Load()).Segment())
	if seg >= len(r.live) {
		r.live = append(r.live, make([]int64, seg+1-len(r.live))...)
	}
	r.live[seg] += v.logLen(t.ID, rid)
	if _, err := r.view.Reset(p); err != nil {
		return err
	}
	for i, l := range loaders {
		k, err := t.viewIndexKeyAppend(r.kbuf[:0], i, &r.view, rid)
		if err != nil {
			return err
		}
		r.kbuf = k
		if err := l.Insert(k, uint64(rid)); err != nil {
			return err
		}
	}
	return nil
}

// RebuildIndexes repopulates every table's in-memory indexes from the
// indirection arrays and returns the number of keys it inserted. A version
// whose payload is not resident gets it back from the log, cached and
// aliasing storage. The rebuild reads the log as a log: rows in RID order
// lie in log order within each stream's segments, so a worker's wal.Reader
// serves a chunk's worth of them from one storage read.
func (e *Engine) RebuildIndexes(parallelism int) (keys int64, err error) {
	keys, _, err = e.rebuildIndexes(parallelism)
	return keys, err
}

// rebuildIndexes is RebuildIndexes, also returning, by segment id, the bytes
// of the records the rows it indexed live in.
func (e *Engine) rebuildIndexes(parallelism int) (keys int64, live []int64, err error) {
	if parallelism <= 0 {
		parallelism = 1
	}
	e.mu.RLock()
	tables := make([]*Table, 0, len(e.tablesByID))
	for _, t := range e.tablesByID {
		tables = append(tables, t)
	}
	e.mu.RUnlock()

	type item struct {
		rid RID
		v   *Version
	}
	type chunk struct {
		t     *Table
		items []item
	}
	ch := make(chan chunk, 2*parallelism) // a chunk in hand and one waiting per worker
	var wg sync.WaitGroup
	var total atomic.Int64
	var liveMu sync.Mutex
	errCh := make(chan error, parallelism)
	for i := 0; i < parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rebuilder{log: e.log.NewReader()}
			defer func() {
				liveMu.Lock()
				if len(r.live) > len(live) {
					live = append(live, make([]int64, len(r.live)-len(live))...)
				}
				for s, n := range r.live {
					live[s] += n
				}
				liveMu.Unlock()
			}()
			var loaders []index.Loader
			failed := false // a failed worker keeps draining so the feeder never blocks
			for c := range ch {
				if failed {
					continue
				}
				loaders = loaders[:0]
				for _, ix := range c.t.indexes {
					loaders = append(loaders, ix.Load())
				}
				var err error
				for _, it := range c.items {
					if err = r.add(c.t, loaders, it.rid, it.v); err != nil {
						break
					}
				}
				for _, l := range loaders {
					l.Done()
				}
				if err != nil {
					errCh <- err
					failed = true
					continue
				}
				total.Add(int64(len(c.items) * len(loaders)))
			}
		}()
	}
	for _, t := range tables {
		items := make([]item, 0, rebuildChunk)
		t.rows.Range(func(rid RID, v *Version) bool {
			if !v.tomb {
				items = append(items, item{rid: rid, v: v})
				if len(items) == rebuildChunk {
					ch <- chunk{t: t, items: items}
					items = make([]item, 0, rebuildChunk)
				}
			}
			return true
		})
		if len(items) > 0 {
			ch <- chunk{t: t, items: items}
		}
	}
	close(ch)
	wg.Wait()
	select {
	case err := <-errCh:
		return 0, nil, err
	default:
		return total.Load(), live, nil
	}
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
