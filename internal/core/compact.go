package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hiengine/internal/chaos"
	"hiengine/internal/wal"
)

// Log compaction (Section 4.4). Append-only storage scatters versions of a
// record across segments and leaves dead versions behind; compaction
// reclaims the space by rewriting a segment set's live record versions at
// the log's tail (with their original CSNs, so replay semantics are
// unchanged), pointing the versions there, taking a fresh checkpoint -- the
// previous image's addresses point into the set -- and only then deleting
// the segments wholesale.
//
// The engine compacts on its own what GC has emptied. GC books the bytes of
// every durable version it prunes against the version's segment (deadLog);
// the GC pass that leaves a sealed segment with live bytes at or below
// 1/liveShare of its size wakes the engine's maintenance goroutine, which
// compacts every such segment in one pass: a rewrite then costs at most a
// twentieth of the bytes it frees. CompactFull compacts every sealed segment.

// Chaos injection sites of a compaction.
const (
	// SiteCompactMid fires once a compaction's rewrites are durable, before
	// its checkpoint: a crash leaves the previous checkpoint the recovery
	// anchor, its addresses in segments not yet dropped.
	SiteCompactMid = "core.compact.mid"
	// SiteCompactDrop fires once the compaction's checkpoint is registered,
	// before the segments are dropped: a crash leaves them in the log,
	// fenced and dead, for the recovered engine to compact.
	SiteCompactDrop = "core.compact.drop"
)

func init() {
	chaos.RegisterSite(SiteCompactMid, "crash after compaction rewrites are durable, before its checkpoint")
	chaos.RegisterSite(SiteCompactDrop, "crash after compaction's checkpoint is registered, before the segments drop")
}

// ErrCompactionHeld is what a compaction returns on an engine that holds
// compaction (HoldCompaction).
var ErrCompactionHeld = errors.New("core: compaction held while a follower is attached")

// liveShare: a sealed segment whose live bytes are at most 1/liveShare of
// its size is compacted.
const liveShare = 20

// compactBatch bounds one append of compaction rewrites.
const compactBatch = 64 << 10

// CompactionStats reports what a compaction pass did.
type CompactionStats struct {
	RecordsRewritten int64
	BytesRewritten   int64
	SegmentsDropped  int
	BytesReclaimed   int64
}

// deadLog is an engine's ledger of dead log bytes, with the maintenance
// goroutine that acts on it. An engine has one when it is writable and runs
// GC; without one GC counts nothing and nothing compacts.
type deadLog struct {
	mu sync.Mutex
	// bytes is, by segment id, the bytes of the records GC has pruned -- a
	// recovered engine's the segment's size less its live records'. It grows
	// with the segment directory.
	bytes []int64
	// due says recovery found a segment to compact: the next GC pass wakes
	// the goroutine whatever it pruned.
	due atomic.Bool

	wake chan struct{} // one pending wake-up at most
	stop chan struct{}
	done chan struct{}
}

// startMaintenance gives the engine its dead-log ledger and starts the
// goroutine that compacts what the ledger finds dead; Close stops it.
func (e *Engine) startMaintenance(dl *deadLog) {
	dl.wake = make(chan struct{}, 1)
	dl.stop = make(chan struct{})
	dl.done = make(chan struct{})
	e.dead = dl
	go e.maintain()
}

// maintain is the maintenance goroutine. A compaction that fails (held, the
// engine closing, a storage error) is given up: the next GC pass that finds a
// dead segment tries again.
func (e *Engine) maintain() {
	dl := e.dead
	defer close(dl.done)
	for {
		select {
		case <-dl.stop:
			return
		case <-dl.wake:
		}
		_, _ = e.compact(e.deadSegments)
	}
}

// stopMaintenance stops the maintenance goroutine, letting a compaction in
// progress finish first.
func (e *Engine) stopMaintenance() {
	if dl := e.dead; dl != nil {
		close(dl.stop)
		<-dl.done
	}
}

// HoldCompaction stops log compaction on the engine for good; checkpoints go
// on. Once it returns, no compaction is in progress. A primary holds it when
// a follower attaches: a follower that applied a row's insert from one
// segment and has not yet read its delete, which GC pruned, from another
// would keep the row if a compaction dropped the second.
func (e *Engine) HoldCompaction() {
	e.ckptMu.Lock()
	e.compactHeld = true
	e.ckptMu.Unlock()
}

// deadTally gathers a GC pass's dead bytes by segment, on the stack, for
// flushDead to book: a pass's prunes fall in a few segments.
type deadTally struct {
	n   int
	seg [4]uint16
	b   [4]int64
}

// version books pruned version v of table's row rid, once, if it is durable.
func (d *deadTally) version(e *Engine, table uint32, rid RID, v *Version) {
	addr := v.Addr()
	if addr == 0 || !v.setFlag(flagDead) {
		return
	}
	seg, n := addr.Segment(), v.logLen(e.log, table, rid)
	for i := 0; i < d.n; i++ {
		if d.seg[i] == seg {
			d.b[i] += n
			return
		}
	}
	if d.n == len(d.seg) {
		e.flushDead(d)
	}
	d.seg[d.n], d.b[d.n] = seg, n
	d.n++
}

// flushDead books d on the ledger, empties it, and wakes the maintenance
// goroutine if a segment it touched is now dead enough to compact -- or
// recovery left one.
func (e *Engine) flushDead(d *deadTally) {
	dl := e.dead
	dl.mu.Lock()
	for i := 0; i < d.n; i++ {
		s := int(d.seg[i])
		if s >= len(dl.bytes) {
			dl.bytes = append(dl.bytes, make([]int64, s+1-len(dl.bytes))...)
		}
		dl.bytes[s] += d.b[i]
		d.b[i] = dl.bytes[s] // the segment's total, for nearlyDead below
	}
	dl.mu.Unlock()
	ring := dl.due.Swap(false)
	for i := 0; i < d.n && !ring; i++ {
		ring = e.nearlyDead(d.seg[i], d.b[i])
	}
	d.n = 0
	if ring {
		select {
		case dl.wake <- struct{}{}:
		default:
		}
	}
}

// nearlyDead reports whether seg is sealed and, with dead of its bytes dead,
// has at most 1/liveShare of them live.
func (e *Engine) nearlyDead(seg uint16, dead int64) bool {
	id, ok := e.log.Directory().Lookup(seg)
	if !ok {
		return false
	}
	p, err := e.svc.Open(id)
	if err != nil || !p.Sealed() {
		return false
	}
	return (p.Size()-dead)*liveShare <= p.Size()
}

// deadSegments is the segment set the maintenance goroutine compacts: every
// sealed segment nearlyDead says is.
func (e *Engine) deadSegments() ([]uint16, error) {
	var out []uint16
	for _, seg := range e.log.Segments() {
		if e.nearlyDead(seg, e.deadBytesOf(seg)) {
			out = append(out, seg)
		}
	}
	return out, nil
}

// deadBytesOf returns the ledger's dead bytes of seg.
func (e *Engine) deadBytesOf(seg uint16) int64 {
	dl := e.dead
	dl.mu.Lock()
	defer dl.mu.Unlock()
	if int(seg) < len(dl.bytes) {
		return dl.bytes[seg]
	}
	return 0
}

// logDeadBytes is the core.log_dead_bytes gauge: the ledger's dead bytes
// over the segments the log has.
func (e *Engine) logDeadBytes() int64 {
	if e.dead == nil || e.log == nil {
		return 0
	}
	var n int64
	for _, seg := range e.log.Segments() {
		n += e.deadBytesOf(seg)
	}
	return n
}

// seedDeadLog is a recovered engine's ledger: each segment's size less the
// bytes of the records its versions live in, live[seg] (the index phase's
// count, from the checkpoint image's framing and the replay's winners).
func (e *Engine) seedDeadLog(live []int64) *deadLog {
	dl := &deadLog{}
	segs := e.log.Segments()
	if len(segs) > 0 {
		dl.bytes = make([]int64, int(segs[len(segs)-1])+1)
	}
	for _, seg := range segs {
		id, ok := e.log.Directory().Lookup(seg)
		if !ok {
			continue
		}
		p, err := e.svc.Open(id)
		if err != nil {
			continue
		}
		var l int64
		if int(seg) < len(live) {
			l = live[seg]
		}
		dl.bytes[seg] = max(p.Size()-l, 0)
		if p.Sealed() && l*liveShare <= p.Size() {
			dl.due.Store(true)
		}
	}
	return dl
}

// CompactFull rewrites all live data into fresh segments and reclaims every
// prior segment.
func (e *Engine) CompactFull() (CompactionStats, error) {
	return e.compact(func() ([]uint16, error) {
		// Fence: after rotating every stream, every segment there is now is
		// sealed and can never receive another append -- in particular not
		// the compaction's own rewrites, which land in the streams' fresh
		// segments.
		if err := e.log.RotateAll(); err != nil {
			return nil, err
		}
		return e.log.SealedSegments(), nil
	})
}

// compact is log compaction over the sealed segments pick returns, which it
// calls holding ckptMu: it rewrites every reachable durable version in them
// at the log's tail, takes a fresh checkpoint, and drops them. Segments that
// hold live 2PC records are kept.
func (e *Engine) compact(pick func() ([]uint16, error)) (CompactionStats, error) {
	var stats CompactionStats
	if e.closed.Load() {
		return stats, ErrClosed
	}
	if e.durabilityLost.Load() {
		return stats, ErrDurabilityLost
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.compactHeld {
		return stats, ErrCompactionHeld
	}
	picked, err := pick()
	if err != nil || len(picked) == 0 {
		return stats, err
	}
	oldSegs := make(map[uint16]bool, len(picked))
	for _, s := range picked {
		oldSegs[s] = true
	}
	// Keep every segment holding a live 2PC record: an OpPrepare backing an
	// undecided (or committed) transaction and every retained OpDecide
	// record must survive compaction for recovery. A record's completion,
	// which registers its segment, runs before its stream seals the
	// segment, so every such record in a picked (sealed) segment is known.
	e.protect2PCSegments(oldSegs)
	if len(oldSegs) == 0 {
		return stats, nil
	}
	oldBytes := int64(0)
	for s := range oldSegs {
		oldBytes += segmentSize(e, s)
	}

	e.mu.RLock()
	tables := make([]*Table, 0, len(e.tablesByID))
	for _, t := range e.tablesByID {
		tables = append(tables, t)
	}
	e.mu.RUnlock()

	// Rewrite every reachable durable version that lives in an old
	// segment. Versions keep their CSNs; only their permanent addresses
	// change (Figure 4b addresses are updated in place in the PIA chain).
	batch := min(compactBatch, int(e.cfg.SegmentSize/2))
	c := compactor{e: e, win: logWindow{log: e.log}, stats: &stats, buf: make([]byte, 0, batch)}
	for _, t := range tables {
		var rerr error
		t.rows.Range(func(rid RID, head *Version) bool {
			for v := head; v != nil; v = v.next.Load() {
				addr := v.Addr()
				if addr == 0 {
					continue // not durable yet; lives in memory only
				}
				if !oldSegs[addr.Segment()] {
					continue // already in a fresh segment
				}
				if isTID(v.tmin.Load()) {
					continue
				}
				if rerr = c.rewrite(t, rid, v); rerr != nil {
					rerr = fmt.Errorf("core: compaction of %v: %w", addr, rerr)
					return false
				}
			}
			return true
		})
		if rerr != nil {
			return stats, rerr
		}
	}
	if err := c.flush(); err != nil {
		return stats, err
	}
	if err := e.svc.Chaos().Check(SiteCompactMid); err != nil {
		return stats, err
	}
	// The previous checkpoint's addresses point into the old segments:
	// the fresh one, over the rewritten addresses, is what lets them go.
	if _, err := e.checkpointLocked(); err != nil {
		return stats, fmt.Errorf("core: compaction checkpoint: %w", err)
	}
	if err := e.svc.Chaos().Check(SiteCompactDrop); err != nil {
		return stats, err
	}
	for s := range oldSegs {
		if err := e.log.DropSegment(s); err != nil {
			return stats, err
		}
		stats.SegmentsDropped++
	}
	if dl := e.dead; dl != nil {
		dl.mu.Lock()
		for s := range oldSegs {
			if int(s) < len(dl.bytes) {
				dl.bytes[s] = 0
			}
		}
		dl.mu.Unlock()
	}
	stats.BytesReclaimed = oldBytes - stats.BytesRewritten
	e.mCompactions.Inc()
	e.mCompactedBytes.Add(stats.BytesRewritten)
	return stats, nil
}

// compactor is one compaction pass's rewriting state. It gathers rewrites,
// each a one-record transaction under its version's CSN, in one buffer and
// appends them together, up to compactBatch bytes at a time; its appends go
// to one stream back to back, so a window of the log serves a chunk's worth
// of them.
type compactor struct {
	e     *Engine
	win   logWindow
	stats *CompactionStats
	buf   []byte
	moved []rewritten
}

// rewritten is a version whose record the compactor's buffer holds, at off,
// the frame of its n-byte payload at pay.
type rewritten struct {
	v        *Version
	off, pay int
	n        int
}

// rewrite queues v's record, v being a version of t's row rid, for the log's
// tail.
func (c *compactor) rewrite(t *Table, rid RID, v *Version) error {
	op := wal.OpUpdate
	var payload []byte
	if v.tomb() {
		op = wal.OpDelete
	} else {
		var err error
		if payload, err = v.payload(c.e); err != nil {
			return err
		}
	}
	need := wal.RecordLen(t.ID, uint64(rid), len(payload)) + wal.MaxTrailerLen
	if len(c.buf)+need > cap(c.buf) {
		if err := c.flush(); err != nil {
			return err
		}
		if need > cap(c.buf) {
			c.buf = make([]byte, 0, need)
		}
	}
	// The record is a transaction of its own: encoded onto the buffer's
	// empty tail, it is a first record, and with the capacity checked above
	// it and its CSN are encoded in place.
	at := len(c.buf)
	rec, _ := wal.AppendRecord(c.buf[at:at], op, t.ID, uint64(rid), payload)
	pay := at + wal.FrameOffset(rec, len(payload))
	rec = wal.StampTxn(rec, 0, v.tmin.Load())
	c.buf = c.buf[:at+len(rec)]
	c.moved = append(c.moved, rewritten{v: v, off: at, pay: pay, n: len(payload)})
	return nil
}

// flush appends the queued rewrites and moves each version to its record's
// new place: its permanent address, and its payload too -- whatever the
// segment v leaves is dropped, no version may keep aliasing its memory. A
// rewritten record that straddles a storage chunk cannot back a payload;
// then v keeps a private one, or goes back to reading the log on demand.
func (c *compactor) flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	base, err := c.e.log.AppendSync(0, c.buf)
	if err != nil {
		return fmt.Errorf("core: compaction append: %w", err)
	}
	for _, m := range c.moved {
		v := m.v
		v.setAddr(base.Add(uint32(m.off)), flagCSN)
		if v.tomb() {
			continue
		}
		if n, ok := v.swing(&c.win, base.Add(uint32(m.pay)), m.n); ok {
			c.e.swung(1, n)
		} else if !v.private() {
			v.data.Store(nil)
		}
	}
	c.stats.RecordsRewritten += int64(len(c.moved))
	c.stats.BytesRewritten += int64(len(c.buf))
	c.buf, c.moved = c.buf[:0], c.moved[:0]
	return nil
}
