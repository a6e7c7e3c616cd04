package core

import (
	"fmt"
	"time"

	"hiengine/internal/wal"
)

// Log compaction (Section 4.4). Append-only storage scatters versions of a
// record across segments and leaves dead versions behind; compaction
// restores locality and reclaims space by rewriting live record versions
// into fresh segments (with their original CSNs, so replay semantics are
// unchanged) and deleting the old segments wholesale.
//
// CompactFull is the paper's full compaction: it fences the current segment
// set by rotating every log stream, rewrites every reachable durable
// version, updates the permanent addresses in the PIAs, and drops the old
// segments. It must not run concurrently with writers whose versions might
// be evicted from memory mid-compaction; the engine serializes it against
// checkpoints.

// CompactionStats reports what a compaction pass did.
type CompactionStats struct {
	RecordsRewritten int64
	BytesRewritten   int64
	SegmentsDropped  int
	BytesReclaimed   int64
}

// CompactFull rewrites all live data into fresh segments and reclaims every
// prior segment.
func (e *Engine) CompactFull() (CompactionStats, error) {
	if e.closed.Load() {
		return CompactionStats{}, ErrClosed
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	var stats CompactionStats

	// Fence: rotate every stream, then take the sealed segment set. A
	// sealed segment can never receive another append -- in particular
	// not the compaction's own rewrites, which land in the streams' open
	// (unsealed) segments.
	if err := e.log.RotateAll(); err != nil {
		return stats, err
	}
	oldSegs := make(map[uint16]bool)
	for _, s := range e.log.SealedSegments() {
		oldSegs[s] = true
	}
	// Wait for in-flight prepare/decision/commit appends so every 2PC
	// record that landed in a sealed segment has registered its segment,
	// then keep those segments: an OpPrepare backing an undecided (or
	// committed) transaction and every retained OpDecide record must
	// survive compaction for recovery.
	// The wait is a bounded sleep-poll, not a Gosched spin: the in-flight
	// appends complete at WAL I/O latency (microseconds to milliseconds),
	// and a spinning compactor would burn a core for that whole window --
	// and live-lock a GOMAXPROCS=1 process if the appender needs the
	// scheduler. If the engine closes mid-wait the stragglers may never
	// drain; fail the compaction rather than hang.
	target := e.commitsStarted.Load()
	for e.commitsDurable.Load() < target {
		if e.closed.Load() {
			return stats, ErrClosed
		}
		time.Sleep(100 * time.Microsecond)
	}
	e.protect2PCSegments(oldSegs)
	oldBytes := int64(0)
	for s := range oldSegs {
		if id, ok := e.log.Directory().Lookup(s); ok {
			if p, err := e.svc.Open(id); err == nil {
				oldBytes += p.Size()
			}
		}
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
	c := compactor{e: e, win: logWindow{log: e.log}, stats: &stats}
	for _, t := range tables {
		var rerr error
		t.rows.Range(func(rid RID, head *Version) bool {
			for v := head; v != nil; v = v.next.Load() {
				addrRaw := v.addr.Load()
				if addrRaw == 0 {
					continue // not durable yet; lives in memory only
				}
				addr := wal.Addr(addrRaw)
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

	// Reclaim the fenced segments.
	for s := range oldSegs {
		if err := e.log.DropSegment(s); err != nil {
			return stats, err
		}
		stats.SegmentsDropped++
	}
	stats.BytesReclaimed = oldBytes - stats.BytesRewritten

	// The previous checkpoint's addresses point into the segments just
	// dropped; a crash before the next checkpoint would leave recovery
	// with dangling pointers. Write a fresh checkpoint (post-compaction
	// addresses) as the final step of compaction.
	if _, err := e.checkpointLocked(); err != nil {
		return stats, fmt.Errorf("core: post-compaction checkpoint: %w", err)
	}
	e.stats.Compactions.Add(1)
	return stats, nil
}

// compactor is one compaction pass's rewriting state. Its rewrites go to one
// stream back to back, so a window of the log serves a chunk's worth of them.
type compactor struct {
	e     *Engine
	win   logWindow
	stats *CompactionStats
}

// rewrite appends v's record again at the log's tail, under v's CSN, and
// moves v there: its permanent address, and its payload too -- whatever the
// segment v leaves is dropped, no version may keep aliasing its memory. A
// rewritten record that straddles a storage chunk cannot back a payload;
// then v keeps a private one, or goes back to reading the log on demand.
func (c *compactor) rewrite(t *Table, rid RID, v *Version) error {
	op := wal.OpUpdate
	var payload []byte
	if v.tomb {
		op = wal.OpDelete
	} else {
		var err error
		if payload, err = v.payload(c.e); err != nil {
			return err
		}
	}
	buf, off := wal.AppendRecord(nil, op, t.ID, uint64(rid), payload)
	wal.StampTxn(buf, off, v.tmin.Load())
	base, err := c.e.log.AppendSync(0, buf)
	if err != nil {
		return fmt.Errorf("core: compaction append: %w", err)
	}
	v.addr.Store(uint64(base.Add(uint32(off))))
	if !v.tomb {
		if n, ok := v.swing(&c.win, base.Add(uint32(wal.PayloadOffset(buf, len(payload)))), len(payload)); ok {
			c.e.swung(1, n)
		} else if !v.private() {
			v.data.Store(nil)
		}
	}
	c.stats.RecordsRewritten++
	c.stats.BytesRewritten += int64(len(buf))
	return nil
}
