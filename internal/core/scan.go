package core

// An index scan resolves its entries a batch at a time. A row read is two
// dependent pointer chases -- the PIA slot to the head version, the version
// to its payload in the log -- and one entry's chases do not depend on the
// next one's, so the scan collects up to scanBatchLen entries from the index
// and resolves them in short loops, one load of each entry per loop, before
// fn sees any of them: the CPU overlaps the entries' cache misses instead of
// taking them one after another (group prefetching; Chen, Ailamaki, Gibbons
// and Mowry, ICDE 2004). What fn is handed is decided when fn is about to
// run, exactly as a row-at-a-time scan decides it: the row's head is read
// again and, if it moved since the batch was resolved (fn wrote the row), the
// visible version is found anew; the payload read and the stale-key check
// happen then too.

// scanBatchLen is how many index entries a scan resolves together.
const scanBatchLen = 16

// scanBatch is one running scan's state: its transaction, table, index and
// callback, the bounds it encoded, and the entries collected and not yet
// handed to fn. A worker slot keeps one for its transactions' scans, so a
// scan allocates nothing of its own; a scan started from inside another's fn
// takes a fresh one.
type scanBatch struct {
	t   *Txn
	tbl *Table
	idx int
	fn  func(rid RID, payload []byte) bool
	// keyed, when set, takes fn's place and is handed each entry's key.
	keyed func(key, payload []byte) bool
	err   error
	// busy says a scan is running on the batch.
	busy bool
	// collect is b.add, bound once when the batch is made: handing the index
	// a method value made per scan would allocate it each time.
	collect func(key []byte, rid uint64) bool
	// from and to hold the bounds of a scan that encoded them.
	from, to []byte
	// drops is the table's dropsBegun when the scan started, and quiet says
	// every removal of index entries begun by then had ended.
	drops uint64
	quiet bool

	n     int
	keys  []byte            // the entries' keys, back to back
	ends  [scanBatchLen]int // where each entry's key ends in keys
	rids  [scanBatchLen]RID
	heads [scanBatchLen]*Version
	vis   [scanBatchLen]*Version
	// touched takes what the prefetching loops load, so none is dropped.
	touched uint64
}

// init binds the batch's index callback.
func (b *scanBatch) init() { b.collect = b.add }

// scanBatch returns the batch t's next scan runs on: its slot's, unless a
// scan on it is running (this one starts inside that one's fn). A finished
// transaction's slot may be another's by now, so it gets none.
func (t *Txn) scanBatch() (*scanBatch, error) {
	if t.finished {
		return nil, ErrTxnDone
	}
	if s := t.slot; s != nil && !s.scan.busy {
		return &s.scan, nil
	}
	b := new(scanBatch)
	b.init()
	return b, nil
}

// setPrefix encodes prefix as the scan's bounds: [prefix, its successor).
func (b *scanBatch) setPrefix(prefix []Value) {
	b.from = EncodeKey(b.from[:0], prefix...)
	b.to = AppendKeySuccessor(b.to[:0], b.from)
}

// scanEncoded visits, in key order, the visible rows whose index-idx keys
// fall in [fromK, toK) on batch b (t.scanBatch), handing fn their encoded
// forms.
func (t *Txn) scanEncoded(b *scanBatch, tbl *Table, idx int, fromK, toK []byte, fn func(rid RID, payload []byte) bool) error {
	b.t, b.tbl, b.idx, b.fn, b.busy = t, tbl, idx, fn, true
	b.drops = tbl.dropsBegun.Load()
	b.quiet = tbl.dropsEnded.Load() == b.drops
	err := tbl.indexes[idx].Scan(fromK, toK, b.collect)
	if b.n > 0 { // the index ran out mid-batch; a stop leaves none behind
		b.flush()
	}
	if b.err != nil {
		err = b.err
	}
	b.t, b.tbl, b.fn, b.keyed, b.err, b.busy = nil, nil, nil, nil, nil, false
	return err
}

// add is the index scan's callback: it collects one entry, and resolves the
// batch once it is full. It reports whether the scan goes on.
func (b *scanBatch) add(key []byte, rid uint64) bool {
	b.keys = append(b.keys, key...)
	b.ends[b.n], b.rids[b.n] = len(b.keys), RID(rid)
	b.n++
	return b.n < scanBatchLen || b.flush()
}

// flush resolves the collected entries, then hands fn the visible ones in
// key order until it returns false. It empties the batch, dropping what it
// held of versions, and reports whether the scan goes on.
func (b *scanBatch) flush() bool {
	t, rows, n := b.t, b.tbl.rows, b.n
	heads, vis := b.heads[:n], b.vis[:n]
	// Each loop's loads are independent of one another: the PIA heads, their
	// tmin words (what visibility reads first), the visible versions, and
	// the first byte of each visible frame (the payload's length, what a
	// reader reads first).
	for i := range heads {
		heads[i] = rows.Get(b.rids[i])
	}
	touched := b.touched
	for _, h := range heads {
		if h != nil {
			touched += h.tmin.Load()
		}
	}
	for i, h := range heads {
		if h != nil {
			vis[i] = t.visibleVersion(h)
		}
	}
	for _, v := range vis {
		if v != nil {
			if p := v.data.Load(); p != nil {
				touched += uint64(*p)
			}
		}
	}
	b.touched = touched

	ok, start := true, 0
	for i := 0; i < n && ok; i++ {
		rid, head, v := b.rids[i], heads[i], vis[i]
		if h := rows.Get(rid); h != head {
			head, v = h, nil
			if h != nil {
				v = t.visibleVersion(h)
			}
		}
		ok = b.emit(b.keys[start:b.ends[i]], rid, head, v)
		start = b.ends[i]
	}
	clear(heads)
	clear(vis)
	b.n, b.keys = 0, b.keys[:0]
	return ok
}

// mayBeStale reports whether the entry that led to head, whose visible
// version is v, may carry a key v's row does not. It cannot when v is head
// and the chain is that one version: a version's keys are taken out of the
// index before GC unlinks it, and an abort takes a write's keys out right
// after uninstalling it -- but an entry read before such a removal may meet
// the chain after it, so the skip also needs no removal to have run on the
// table since the scan started (Table.dropsBegun). A replica always
// verifies: a follower's entries are added record by record from the log,
// which cannot always say which entry a record made stale.
func (b *scanBatch) mayBeStale(head, v *Version) bool {
	return b.t.e.readOnly.Load() || v != head || head.next.Load() != nil ||
		!b.quiet || b.tbl.dropsBegun.Load() != b.drops
}

// emit hands fn the row at rid if its visible version v (under head) is live
// and carries the entry's key. It reports whether the scan goes on.
func (b *scanBatch) emit(key []byte, rid RID, head, v *Version) bool {
	if v == nil || v.tomb() {
		return true // not visible in this snapshot
	}
	t := b.t
	p, err := v.payload(t.e)
	if err != nil {
		b.err = err
		return false
	}
	// Verify the entry's key matches the visible row (a stale entry for a
	// changed key, or a newer key this snapshot must not see), unless the
	// entry cannot be stale.
	if b.mayBeStale(head, v) {
		s := t.slot
		if _, err = s.view.Reset(p); err == nil {
			s.kbuf, err = b.tbl.viewIndexKeyAppend(s.kbuf[:0], b.idx, &s.view, rid)
		}
		if err != nil {
			b.err = err
			return false
		}
		if string(s.kbuf) != string(key) {
			return true
		}
	}
	if b.keyed != nil {
		return b.keyed(key, p)
	}
	return b.fn(rid, p)
}
