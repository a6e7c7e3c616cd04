package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// The log applier (Sections 3.1 and 4.3). Recovery replays the log into the
// indirection arrays; a read replica is that replay kept going against the
// log its primary goes on writing (REDO-only recovery that does not stop when
// the engine opens). One applier does both: Recover runs its pass once, with
// ReplayThreads goroutines, and a replica's CatchUp runs the same pass again,
// with one, from where the previous pass stopped in each segment.
//
// The passes differ in one thing, which the applier knows from its own state:
// whether the engine already serves reads. Recovery's pass has no readers: it
// swaps a version in for a row's head, newest CSN wins, and keeps a list of the
// versions it installed, whose index keys and delete markers recovery deals
// with once the checkpoint image is in (recoverLog). A later pass has readers:
// it installs a record the way a commit installs a write -- on top of the
// chain, the superseded head retired to GC at the record's CSN, index keys
// added -- so a snapshot keeps the versions it sees, and GC, not the apply,
// clears a delete marker, after the pass: an older record of the row arriving
// in the same pass loses to it.

// applier is one engine's replay state: what it has read of the log, and what
// it holds until a later record completes it.
type applier struct {
	e *Engine

	// mu serializes a replica's passes with Promote and guards the fields
	// below that a pass leaves behind.
	mu sync.Mutex
	// manifest is where a catalog refresh reads table records: a replica
	// follows the primary's manifest migrations (TrackManifest).
	manifest srss.PLogID
	// tables is the catalog a pass resolves records against: read without a
	// lock by the replay threads, replaced only between passes.
	tables map[uint32]*Table
	// offsets is where each segment's next scan starts. fenced holds the
	// segments the recovery checkpoint covers, which no pass scans.
	offsets map[uint16]int64
	fenced  map[uint16]bool
	// skipCSN is the recovery checkpoint's CSN: recovery's pass skips records
	// at or below it, which the image holds (durability barrier at checkpoint
	// time). Only that pass: a later one meets compaction rewrites of such
	// records, whose new addresses it must take.
	skipCSN uint64
	// maxCSN is the highest CSN applied: RecoveryStats.MaxCSN, a replica's
	// AppliedCSN and what its clock advances to.
	maxCSN uint64
	// replayed holds the versions recovery's pass installed.
	replayed replayLog
	// live says the engine serves reads.
	live bool

	// The 2PC matcher, under twopcMu: recovery's replay threads share it.
	twopcMu sync.Mutex
	// pendPrep holds prepare records waiting for their decisions, pendForget
	// the gtids whose forgets wait for a prepare or a decision.
	pendPrep   map[string]prepared
	pendForget map[string]bool

	// view and kbuf derive a live pass's index keys, prev and kbuf2 those of
	// the row it supersedes (a live pass runs on one goroutine), kept across
	// records instead of made for each.
	view, prev  RowView
	kbuf, kbuf2 []byte
}

// replayed is a version recovery's pass installed at rid in t.
type replayed struct {
	t   *Table
	rid RID
	v   *Version
}

// replayLog is a list of replayed versions in chunks of indexChunk, which
// recovery's tail-keys phase hands its workers one at a time.
type replayLog [][]replayed

// add appends r, starting a chunk when the last one is full.
func (l *replayLog) add(r replayed) {
	n := len(*l)
	if n == 0 || len((*l)[n-1]) == indexChunk {
		*l, n = append(*l, make([]replayed, 0, indexChunk)), n+1
	}
	(*l)[n-1] = append((*l)[n-1], r)
}

// prepared is an OpPrepare record the matcher holds.
type prepared struct {
	addr    wal.Addr
	payload []byte
}

// testHookBeforeSegScan, when set, runs before a pass scans each segment.
// Tests use it to interleave a primary-side compaction between a follower's
// directory refresh and its segment scan -- the window in which a
// fenced-and-rewritten segment is dropped out from under a mid-catch-up
// follower, forcing the wal.ErrSegmentDropped path in pass.
var testHookBeforeSegScan func(seg uint16)

// pass scans every segment the checkpoint did not fence, each from where the
// previous pass stopped, and applies what it finds with threads goroutines,
// which pull whole segments, the largest first (longest-processing-time
// scheduling balances the tail). It adds what it did to st, and reports
// whether a scan stopped at a record of a table the catalog does not know.
func (a *applier) pass(threads int, st *RecoveryStats) (stalled bool, err error) {
	log := a.e.log
	var segs []uint16
	for _, seg := range log.Segments() {
		if a.fenced[seg] {
			st.SegmentsSkipped++
			continue
		}
		segs = append(segs, seg)
	}
	st.SegmentsScanned += len(segs)
	if threads > 1 {
		sort.Slice(segs, func(i, j int) bool {
			return segmentSize(a.e, segs[i]) > segmentSize(a.e, segs[j])
		})
	}
	// at[i] is where segs[i]'s scan starts, then where it stopped (-1: the
	// segment was dropped).
	at := make([]int64, len(segs))
	next := make(chan int, len(segs))
	for i, seg := range segs {
		at[i] = a.offsets[seg]
		next <- i
	}
	close(next)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Thread-local counters: replay applies millions of records, so
			// shared atomics per record would serialize the threads.
			var scanned, applied int64
			var top uint64
			var got replayLog
			halted := false
			fn := func(txn []wal.Entry) bool {
				scanned += int64(len(txn))
				// 2PC records come before the skip rule: a prepare carries CSN
				// 0, and every decision must reach the matcher for TxnStatus.
				// Each is a transaction of its own.
				op, csn := txn[0].Op, txn[0].CSN
				ok := true
				switch {
				case op == wal.OpPrepare || op == wal.OpDecide || op == wal.OpForget:
					var n int64
					a.twopcMu.Lock()
					n, ok = a.match(txn[0].Addr, txn[0].Record, &got)
					a.twopcMu.Unlock()
					applied += n
				case !a.live && csn <= a.skipCSN:
				case !a.known(txn):
					ok = false
				default:
					for i := range txn {
						r := &txn[i]
						if t := a.tables[r.Table]; t != nil && a.apply(t, r.Addr, r.Record, i == 0, &got) {
							applied++
						}
					}
				}
				if !ok {
					// The scan stops here, and the transaction waits, whole:
					// none of it applied, its CSN not counted.
					halted = true
					return false
				}
				top = max(top, csn)
				return true
			}
			for i := range next {
				if h := testHookBeforeSegScan; h != nil {
					h(segs[i])
				}
				end, serr := log.ScanSegmentFrom(segs[i], at[i], fn)
				at[i] = end
				if errors.Is(serr, wal.ErrSegmentDropped) {
					// A compaction dropped the segment: a newer checkpoint
					// covers what it held, and its records live on in the
					// rewrites at the log's tail.
					at[i] = -1
				} else if serr != nil {
					mu.Lock()
					err = cmp.Or(err, serr)
					mu.Unlock()
				}
			}
			mu.Lock()
			st.RecordsScanned += scanned
			st.RecordsApplied += applied
			a.maxCSN = max(a.maxCSN, top)
			stalled = stalled || halted
			a.replayed = append(a.replayed, got...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for i, seg := range segs {
		if at[i] < 0 {
			delete(a.offsets, seg)
		} else {
			a.offsets[seg] = at[i]
		}
	}
	return stalled, err
}

// known reports whether the catalog knows every table txn writes. When it
// does not, the scan stops at the transaction: a replica's copy of the log can
// hold a new table's records before the manifest record the primary wrote
// ahead of them, and the transaction waits, whole, for a catalog refresh.
func (a *applier) known(txn []wal.Entry) bool {
	for i := range txn {
		if _, ok := a.table(txn[i].Table); !ok {
			return false
		}
	}
	return true
}

// table resolves a record's table. ok is false when the scan must stop at the
// record's transaction (see known). A writable engine has read its whole
// manifest; it skips a record of a table it does not know.
func (a *applier) table(id uint32) (t *Table, ok bool) {
	t = a.tables[id]
	return t, t != nil || !a.e.readOnly.Load()
}

// apply installs one record of table t at addr unless the row already holds a
// newer version, and reports whether it did; first says the record is its
// transaction's first; recovery's pass adds the version it installs to got.
// The version's payload is the record's, where the scan found it. A record
// at the head's own CSN is the head relocated by a compaction rewrite
// (rewrites keep their CSNs): the version takes the new address and the
// rewrite's payload, letting go of one cached from the old record, which the
// primary drops once the rewrite is durable. Not counted as applied -- the
// version's content and indexes are already in place.
func (a *applier) apply(t *Table, addr wal.Addr, rec wal.Record, first bool, got *replayLog) bool {
	rid := RID(rec.RID)
	if err := t.rows.AllocAt(rid); err != nil {
		return false
	}
	var f uint64
	if first {
		f = flagCSN
	}
	v := &Version{}
	v.tmin.Store(rec.CSN)
	if rec.Op == wal.OpDelete {
		f |= flagTomb
	} else {
		v.setData(rec.Frame())
	}
	v.word.Store(f | uint64(addr))
	for {
		head := t.rows.Get(rid)
		if head != nil {
			have := head.tmin.Load()
			if have > rec.CSN {
				return false
			}
			if have == rec.CSN {
				head.setAddr(addr, f&flagCSN)
				if !head.tomb() {
					head.setData(rec.Frame())
				}
				return false
			}
		}
		if a.live {
			v.next.Store(head)
		}
		if ok, err := t.rows.CompareAndSwap(rid, head, v); err != nil {
			return false
		} else if ok {
			if a.live {
				a.installed(t, rid, v, head, rec.Payload)
			} else {
				got.add(replayed{t, rid, v})
			}
			return true
		}
	}
}

// installed is a live pass's bookkeeping for v, installed over head: what a
// commit does for a write, on worker 0's GC bag.
func (a *applier) installed(t *Table, rid RID, v, head *Version, payload []byte) {
	wasLive := head != nil && !head.tomb()
	we := writeEntry{table: t, rid: rid, newV: v, oldV: head, keysChanged: wasLive}
	if v.tomb() && wasLive {
		t.liveRows.Add(-1)
	} else if !v.tomb() {
		if !wasLive {
			t.liveRows.Add(1)
		}
		we.keysChanged = a.addKeys(t, rid, payload, head)
	}
	slot := &a.e.workers[0]
	slot.mu.Lock()
	slot.retire(&we, v.CSN())
	slot.mu.Unlock()
}

// addKeys adds the index keys of the row payload, installed at rid over head,
// that head's row does not have, and reports whether head's row has a key the
// new one does not -- GC removes those. Like an update, it builds no key of
// an index whose columns the record leaves alone.
func (a *applier) addKeys(t *Table, rid RID, payload []byte, head *Version) (changed bool) {
	if _, err := a.view.Reset(payload); err != nil {
		return true
	}
	old := head != nil && !head.tomb()
	if old {
		p, err := head.payload(a.e)
		if err == nil {
			_, err = a.prev.Reset(p)
		}
		// An old row it cannot read: every key is added, and GC looks.
		old, changed = err == nil, err != nil
	}
	for i, ix := range t.indexes {
		if old && a.view.sameCols(&a.prev, t.Schema.Indexes[i].Columns) {
			continue
		}
		k, err := t.viewIndexKeyAppend(a.kbuf[:0], i, &a.view, rid)
		if err != nil {
			continue
		}
		a.kbuf = k
		if old {
			if a.kbuf2, err = t.viewIndexKeyAppend(a.kbuf2[:0], i, &a.prev, rid); err == nil && string(a.kbuf2) == string(k) {
				continue
			}
			changed = true
		}
		_ = ix.Insert(k, uint64(rid))
	}
	return changed
}

// match feeds one 2PC record to the matcher and returns how many embedded
// writes it applied. A gtid's records ride different log streams -- the
// prepare its session worker's, the decision and the forget worker 0's -- so
// a pass meets them in any order, and the matcher assumes none:
//
//   - A prepare waits in pendPrep for its decision: its writes must not apply
//     before it. One whose decision came first applies at once (commit) or is
//     dropped (abort), so a committed gtid's writes are never stranded.
//   - A decision applies its waiting prepare's writes at the decision's CSN,
//     or drops them, and is remembered so TxnStatus answers.
//   - A forget waits until both of its gtid's other records are consumed
//     (forgetIfSettled).
//
// What still waits at the end of the log is settle's. ok is false when a
// prepare writes a table the catalog does not know (see known): a prepare is
// a transaction of its own. The writes it applies go to got (apply). Requires
// twopcMu.
func (a *applier) match(addr wal.Addr, rec wal.Record, got *replayLog) (applied int64, ok bool) {
	var gtid string
	switch rec.Op {
	case wal.OpPrepare:
		g, body, err := decodePreparePayload(rec.Payload)
		if err != nil {
			return 0, true
		}
		known := true
		_ = forEachEmbedded(body, func(_ int, emb wal.Record) error {
			_, k := a.table(emb.Table)
			known = known && k
			return nil
		})
		if !known {
			return 0, false
		}
		gtid = g
		entry := a.e.pendEntry(gtid)
		if entry == nil {
			a.pendPrep[gtid] = prepared{addr: addr, payload: append([]byte(nil), rec.Payload...)}
			return 0, true
		}
		// The decision came first.
		entry.mu.Lock()
		first := entry.decided && !entry.havePrep
		if first {
			entry.havePrep, entry.prepSeg = true, addr.Segment()
		}
		commit, csn := first && entry.commit, entry.csn
		entry.mu.Unlock()
		if commit {
			applied = a.commitPrepared(addr, rec.Payload, body, csn, got)
		}
	case wal.OpDecide:
		g, commit, err := decodeDecidePayload(rec.Payload)
		if err != nil {
			return 0, true
		}
		gtid = g
		p, waiting := a.pendPrep[gtid]
		delete(a.pendPrep, gtid)
		if waiting && commit {
			if _, body, err := decodePreparePayload(p.payload); err == nil {
				applied = a.commitPrepared(p.addr, p.payload, body, rec.CSN, got)
			}
		}
		a.e.noteDecision(gtid, commit, rec.CSN, addr.Segment(), p.addr.Segment(), waiting)
	case wal.OpForget:
		g, err := decodeGTIDPayload(rec.Payload)
		if err != nil {
			return 0, true
		}
		gtid = g
		a.pendForget[gtid] = true
	}
	a.forgetIfSettled(gtid)
	return applied, true
}

// commitPrepared applies the writes embedded in body, the write buffer of the
// prepare record at addr whose payload is payload, at the commit's CSN.
func (a *applier) commitPrepared(addr wal.Addr, payload, body []byte, csn uint64, got *replayLog) (applied int64) {
	base := addr.Add(uint32(prepHeaderLen(len(payload)) + len(payload) - len(body)))
	_ = forEachEmbedded(body, func(off int, rec wal.Record) error {
		rec.CSN = csn
		// No record of a prepared buffer is charged a trailer (flagCSN).
		if t := a.tables[rec.Table]; t != nil && a.apply(t, base.Add(uint32(off)), rec, false, got) {
			applied++
		}
		return nil
	})
	return applied
}

// forgetIfSettled carries out a gtid's forget once its prepare and decision
// have both been consumed. Dropped earlier, the entry would let the record
// still to come start the gtid over: a late prepare would wait for a decision
// forever.
func (a *applier) forgetIfSettled(gtid string) {
	if !a.pendForget[gtid] {
		return
	}
	if entry := a.e.pendEntry(gtid); entry != nil {
		entry.mu.Lock()
		settled := entry.decided && entry.havePrep
		entry.mu.Unlock()
		if settled {
			a.forget(gtid)
		}
	}
}

// forget drops what the applier and the engine hold of a gtid.
func (a *applier) forget(gtid string) {
	delete(a.pendForget, gtid)
	delete(a.pendPrep, gtid)
	a.e.pendMu.Lock()
	delete(a.e.pend2pc, gtid)
	a.e.pendMu.Unlock()
}

// settle is the end of the log, where no record will come to complete what
// the matcher still holds: the end of Recover on a writable engine, Promote on
// a replica (whose primary may write the missing record until then). A
// forgotten gtid goes, whatever of it arrived -- a checkpoint may have fenced
// its prepare or its decision. A prepare with no decision becomes an in-doubt
// transaction again: its writes go back on the heads under a TID,
// re-acquiring their write locks, with their index entries, for the
// coordinator to resolve here. Runs once the indexes are built.
func (a *applier) settle() (inDoubt int64, err error) {
	for gtid := range a.pendForget {
		a.forget(gtid)
	}
	for gtid, p := range a.pendPrep {
		if err := a.e.reconstructInDoubt(gtid, p.addr, p.payload); err != nil {
			return inDoubt, fmt.Errorf("core: in-doubt reconstruction of %q: %w", gtid, err)
		}
		delete(a.pendPrep, gtid)
		inDoubt++
	}
	return inDoubt, nil
}

// refreshCatalog registers the tables of the manifest's table records the
// engine does not have yet -- DDL that ran on the primary after the catalog
// was last read -- and gives the passes the new catalog.
func (a *applier) refreshCatalog() error {
	p, err := a.e.svc.Open(a.manifest)
	if err != nil {
		return err
	}
	err = scanManifest(p, func(typ byte, payload []byte) error {
		if typ != manifestTable {
			return nil
		}
		return a.e.addTable(payload)
	})
	a.e.mu.RLock()
	a.tables = maps.Clone(a.e.tablesByID)
	a.e.mu.RUnlock()
	return err
}

// addTable registers the table a manifest table record describes, unless the
// engine has it already.
func (e *Engine) addTable(payload []byte) error {
	id64, n := binary.Uvarint(payload)
	if n <= 0 {
		return errors.New("core: corrupt table manifest record")
	}
	id := uint32(id64)
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, known := e.tablesByID[id]; known {
		return nil
	}
	s, err := unmarshalSchema(payload[n:])
	if err != nil {
		return err
	}
	t, err := e.buildTable(id, s)
	if err != nil {
		return err
	}
	e.tables[s.Name] = t
	e.tablesByID[id] = t
	e.nextTable = max(e.nextTable, id)
	return nil
}
