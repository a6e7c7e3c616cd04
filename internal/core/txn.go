package core

import (
	"bytes"
	"errors"
	"fmt"

	"hiengine/internal/index"
	"hiengine/internal/obs"
	"hiengine/internal/wal"
)

// writeEntry records one write for commit stamping, undo and GC. It holds
// no keys: the index entries a write added, and the ones it made stale, are
// derived from the versions' payloads by whoever needs them (abort, GC).
type writeEntry struct {
	table  *Table
	rid    RID
	newV   *Version
	oldV   *Version // version superseded by newV (nil for a fresh insert)
	logOff int      // offset of the op record in the write set's log buffer
	// frameOff is the offset of the record's framed payload, newV's row, in
	// the same buffer.
	frameOff int
	// keysChanged says oldV carries an index key newV does not (a
	// key-changing update, a delete): its entries become garbage when oldV
	// is reclaimed. Old entries stay until then -- older snapshots still
	// resolve through them.
	keysChanged bool
}

// writeSet is the write side of one transaction: the log buffer its records
// are encoded into, once, and the entries commit stamps. The entries belong
// to a worker slot and go back to it when the WAL reports the buffer durable
// (or the transaction rolls back). The buffer does not: until then it is
// where the transaction's versions read their rows (Version.data), and a
// reader that loaded such a payload may go on reading it after the swing, so
// no buffer is ever written again once its transaction is done with it. Each
// is carved from its slot's log arena (workerSlot.carve), sized by what the
// slot's previous transaction filled.
type writeSet struct {
	e    *Engine
	slot *workerSlot // nil: not recycled (a prepared transaction's outlives its slot's use of it)

	log    []byte
	writes []writeEntry
	// private is the payload bytes of writes: what the transaction puts on
	// the engine's private-payload ledger when it hands the log over.
	private int

	// txn is the committing transaction, csn the CSN onStamp drew for it,
	// and durable its callback; stamp and logDone are ws.onStamp and
	// ws.onLogDone, bound once for the write set's life so a commit hands the
	// WAL its callbacks without allocating them.
	txn     *Txn
	csn     uint64
	durable func(csn uint64, err error)
	stamp   func([]byte) []byte
	logDone func(wal.Addr, error)
}

// Bounds on what a slot keeps: write sets in flight at once under commit
// pipelining, and the capacity one oversized transaction may leave behind.
const (
	maxFreeWriteSets  = 4
	maxKeptWriteSlots = 1 << 13
)

// Log arenas. A transaction's log buffer is carved from its slot's current
// arena when it fits one (Section 4.2's per-worker log buffers): carved
// space is never rewound, not even on abort, nor reused, and an arena is
// the collector's once every version carved from it has swung to the log
// (writeSet.landed) and no reader keeps a payload in it. A slot's first
// transaction, with no predecessor to size by, gets firstLogBytes.
const (
	logArenaBytes = 16 << 10
	firstLogBytes = 256
)

// carve returns an empty log buffer of capacity n: cut from the slot's
// arena, a fresh one when what is left is too small, or allocated alone when
// n exceeds an arena.
func (s *workerSlot) carve(n int) []byte {
	if n > logArenaBytes {
		return make([]byte, 0, n)
	}
	if n > len(s.arena) {
		s.arena = make([]byte, logArenaBytes)
	}
	b := s.arena[:0:n]
	s.arena = s.arena[n:]
	return b
}

// writeSet returns the transaction's write set, taking one from the slot on
// the first write, with a log buffer carved from the slot's arena: an eighth
// over what the slot's last transaction filled, and room for its CSN, so one
// a little larger than its predecessor does not pay a second buffer and a
// copy.
func (t *Txn) writeSet() *writeSet {
	if t.ws != nil {
		return t.ws
	}
	s := t.slot
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		t.ws, s.free[n-1] = s.free[n-1], nil
		s.free = s.free[:n-1]
	}
	s.mu.Unlock()
	if t.ws == nil {
		ws := &writeSet{e: t.e, slot: s}
		ws.stamp, ws.logDone = ws.onStamp, ws.onLogDone
		t.ws = ws
	}
	n := firstLogBytes
	if s.lastLogBytes > 0 {
		n = s.lastLogBytes + s.lastLogBytes/8 + wal.MaxTrailerLen
	}
	t.ws.log = s.carve(n)
	return t.ws
}

// release returns the write set's entries to its slot. The caller is done
// with it: the WAL has copied the log buffer out (its done fired), or nothing
// was handed over.
func (ws *writeSet) release() {
	s := ws.slot
	if s == nil || cap(ws.writes) > maxKeptWriteSlots {
		return
	}
	clear(ws.writes) // drop the version pointers
	ws.log, ws.writes, ws.private, ws.txn, ws.durable = nil, ws.writes[:0], 0, nil, nil
	s.mu.Lock()
	if len(s.free) < maxFreeWriteSets {
		s.free = append(s.free, ws)
	}
	s.mu.Unlock()
}

// landed is what a write set does when its log buffer is durable, buffer
// offset 0 at base. Each version now has a home in the replicated log
// (Figure 4b): its record there is the authoritative copy of the row, so the
// version reads it from there from now on and lets go of the transaction's
// buffer, the second copy -- unless the payload straddles a storage chunk, in
// which case no one slice of the log holds it. Such a version takes a private
// copy of its row: left where it is, it would keep the whole transaction's
// buffer alive for one row. Then the permanent address is stamped.
func (ws *writeSet) landed(base wal.Addr) {
	win := logWindow{log: ws.e.log}
	swings, released := 0, 0
	for i := range ws.writes {
		we := &ws.writes[i]
		if f, n := we.newV.frame(); f != nil { // a delete marker has none
			if r, ok := we.newV.swing(&win, base.Add(uint32(we.frameOff)), n); ok {
				swings++
				released += r
			} else {
				we.newV.setData(bytes.Clone(f))
			}
		}
		we.newV.setAddr(base.Add(uint32(we.logOff)), 0)
	}
	ws.e.swung(swings, released)
}

// onLogDone is the WAL's completion callback for a committed write set.
func (ws *writeSet) onLogDone(base wal.Addr, err error) {
	e := ws.e
	if err == nil {
		ws.landed(base)
	} else {
		// The transaction is already visible to other workers, but its log
		// records will never be durable: latch the sticky fail-stop flag so
		// no later Begin/Commit is acknowledged against the diverged state.
		e.durabilityLost.Store(true)
		e.mDurabilityFail.Inc()
	}
	durable, csn := ws.durable, ws.csn
	ws.release()
	durable(csn, err)
}

// Txn is one transaction. A Txn is not safe for concurrent use; it belongs
// to the session (worker) that began it, which may begin the next one in it
// once it is finished (Reusable). No reader holds a Txn: a TID resolves
// through its slot (resolve).
type Txn struct {
	e      *Engine
	worker int
	// slot is the worker slot the transaction runs on; its scratch is the
	// transaction's while it is active. nil for a prepared transaction
	// rebuilt by recovery, which runs on no slot.
	slot  *workerSlot
	tid   uint64
	begin uint64
	csn   uint64 // drawn at commit (writeSet.onStamp)

	ws *writeSet // nil until the first write

	finished bool
	// prepared marks a 2PC participant transaction that has voted and now
	// awaits the coordinator's decision: no further operations, commits or
	// aborts are accepted through the Txn; Engine.Resolve owns its fate, and
	// the Txn never begins again.
	prepared bool

	// wait is what a synchronous Commit waits on and waitDone the callback
	// that signals it, made at the handle's first one and kept for every
	// later one.
	wait     chan error
	waitDone func(csn uint64, err error)

	// trace, when non-nil, attributes the commit pipeline's WAL and
	// replication stages to this transaction's request trace. Owned by the
	// transaction's worker goroutine until CommitAsync hands it to the WAL
	// I/O goroutine.
	trace *obs.Trace
}

// hasWrites reports whether the transaction has written anything.
func (t *Txn) hasWrites() bool { return t.ws != nil && len(t.ws.writes) > 0 }

// SetTrace attaches a request trace to the transaction (nil detaches).
// The commit path threads it through the WAL so enqueue, group-commit,
// replication, and durability are attributed per request.
func (t *Txn) SetTrace(tr *obs.Trace) {
	if t == nil {
		return
	}
	t.trace = tr
}

// Begin starts a transaction on a worker slot. Each worker slot can run one
// transaction at a time (the paper binds one worker thread per core).
func (e *Engine) Begin(worker int) (*Txn, error) {
	t := new(Txn)
	if err := e.BeginInto(t, worker); err != nil {
		return nil, err
	}
	return t, nil
}

// BeginInto is Begin starting the transaction in t, memory the caller
// allocated: a front end that holds its core transaction by value, and
// begins each of its transactions in it, pays no allocation per transaction
// for it. t must be a zero Txn or a Reusable one.
func (e *Engine) BeginInto(t *Txn, worker int) error {
	if !t.Reusable() {
		return errors.New("core: transaction begun twice")
	}
	if e.closed.Load() {
		return ErrClosed
	}
	if e.durabilityLost.Load() {
		return ErrDurabilityLost
	}
	if worker < 0 || worker >= len(e.workers) {
		return fmt.Errorf("core: worker %d out of range [0,%d)", worker, len(e.workers))
	}
	// Pin the slot below every snapshot before reading the clock: watermark
	// reads its clock before it walks the slots, so a slot it saw idle begins
	// at or above it, and one it sees pinned holds it down. (Published after
	// the clock read, the slot could be passed over by a GC pass in between,
	// whose watermark is then above this snapshot and prunes the version it
	// needs.)
	slot := &e.workers[worker]
	if !slot.activeBegin.CompareAndSwap(0, 1) {
		return ErrWorkerBusy
	}
	begin := e.clk.Now()
	slot.activeBegin.Store(begin)
	// The TID before the status: a reader that loaded the previous TID here
	// loads it again after the status word, and finds it gone (resolve).
	slot.seq++
	tid := makeTID(worker, slot.seq)
	slot.tid.Store(tid)
	slot.status.Store(packStatus(txActive, 0))
	t.e, t.worker, t.slot = e, worker, slot
	t.tid, t.begin, t.csn = tid, begin, 0
	t.finished, t.prepared, t.trace = false, false, nil
	return nil
}

// Reusable reports whether t may begin (again) through BeginInto: it never
// began, or it finished and was not prepared. No reader holds a finished
// transaction -- its TID resolves through its slot -- so its owner, the one
// goroutine that used it, may begin the next one in the same memory, while
// its commit is still in flight. A prepared one belongs to its 2PC decision.
func (t *Txn) Reusable() bool {
	return t.e == nil || t.finished && !t.prepared
}

// --- visibility ----------------------------------------------------------

// visible reports whether version v is visible to t under snapshot
// isolation, resolving a TID-stamped version through its writer's slot
// (Section 5.1, Engine.visibleTID).
func (t *Txn) visible(v *Version) bool {
	raw := v.tmin.Load()
	switch {
	case !isTID(raw):
		return raw <= t.begin
	case raw == t.tid:
		return true // own write
	}
	return t.e.visibleTID(v, raw, t.begin)
}

// visibleVersion walks the chain from head and returns the first version
// visible to t (nil if none).
func (t *Txn) visibleVersion(head *Version) *Version {
	for v := head; v != nil; v = v.next.Load() {
		if t.visible(v) {
			return v
		}
	}
	return nil
}

// --- reads ---------------------------------------------------------------
//
// The raw reads are the implementation; Get, GetByKey, ScanKey and
// ScanPrefix decode on top of them (the scans through scanEncoded). A raw
// callback receives the visible version's payload -- the encoded row exactly
// as it was logged -- and those bytes are never rewritten or recycled,
// wherever they lie: a published version's sealed record in its log buffer (a
// stretch of its slot's log arena no one writes again, whose growth copies
// rather than moves), a chunk of the log (append-only storage), or a private
// copy (of a record that straddles a chunk, at durability or on a reload).
// So a payload is immutable and may be kept, or values aliasing it
// (RowArena.AppendRow); a kept payload pins its chunk, or its log arena, for
// as long as it is kept.

// getRaw hands fn the encoded row at rid visible to t.
func (t *Txn) getRaw(tbl *Table, rid RID, fn func(payload []byte) error) error {
	if t.finished {
		return ErrTxnDone
	}
	head := tbl.rows.Get(rid)
	if head == nil {
		return ErrNotFound
	}
	v := t.visibleVersion(head)
	if v == nil || v.tomb() {
		return ErrNotFound
	}
	p, err := v.payload(t.e)
	if err != nil {
		return err
	}
	return fn(p)
}

// Get returns the row at rid visible to t.
func (t *Txn) Get(tbl *Table, rid RID) (row Row, err error) {
	err = t.getRaw(tbl, rid, func(p []byte) (derr error) {
		row, derr = DecodeRow(p)
		return derr
	})
	return row, err
}

// GetByKeyRaw looks a row up through a unique index and hands fn its RID
// and encoded form. vals are the index key column values in index order.
func (t *Txn) GetByKeyRaw(tbl *Table, idx int, vals []Value, fn func(rid RID, payload []byte) error) error {
	if t.finished {
		return ErrTxnDone
	}
	def := tbl.Schema.Indexes[idx]
	if !def.Unique {
		return fmt.Errorf("core: GetByKey on non-unique index %q", def.Name)
	}
	s := t.slot
	s.kbuf = EncodeKey(s.kbuf[:0], vals...)
	ridU, ok, err := tbl.indexes[idx].Get(s.kbuf)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNotFound
	}
	rid := RID(ridU)
	return t.getRaw(tbl, rid, func(p []byte) error {
		// Index entries are single-versioned: verify the visible row still
		// carries the probed key (it may be a newer entry for a key this
		// snapshot should not see, or a stale entry for a changed key).
		if _, err := s.view.Reset(p); err != nil {
			return err
		}
		for i, c := range def.Columns {
			if !s.view.ColEqual(c, vals[i]) {
				return ErrNotFound
			}
		}
		return fn(rid, p)
	})
}

// GetByKey is GetByKeyRaw returning the decoded row.
func (t *Txn) GetByKey(tbl *Table, idx int, vals ...Value) (rid RID, row Row, err error) {
	err = t.GetByKeyRaw(tbl, idx, vals, func(r RID, p []byte) (derr error) {
		rid = r
		row, derr = DecodeRow(p)
		return derr
	})
	if err != nil {
		return 0, nil, err
	}
	return rid, row, nil
}

// ScanRangeRaw visits, in key order, the visible rows whose raw index-idx
// keys fall in [from, to) (a nil bound is open), handing fn each entry's key,
// valid for the call, and the row encoded: a scan that stops can resume just
// past the last key it was handed.
func (t *Txn) ScanRangeRaw(tbl *Table, idx int, from, to []byte, fn func(key, payload []byte) bool) error {
	b, err := t.scanBatch()
	if err != nil {
		return err
	}
	b.keyed = fn
	return t.scanEncoded(b, tbl, idx, from, to, nil)
}

// ScanKey visits, in key order, the visible rows whose index-idx keys fall
// in [from, to), decoded. A nil bound is open.
func (t *Txn) ScanKey(tbl *Table, idx int, from, to []Value, fn func(rid RID, row Row) bool) error {
	b, err := t.scanBatch()
	if err != nil {
		return err
	}
	var fromK, toK []byte
	if len(from) > 0 {
		b.from = EncodeKey(b.from[:0], from...)
		fromK = b.from
	}
	if len(to) > 0 {
		b.to = EncodeKey(b.to[:0], to...)
		toK = b.to
	}
	return t.scanDecoded(b, tbl, idx, fromK, toK, fn)
}

// ScanPrefix visits the visible rows whose index keys start with the given
// values, decoded.
func (t *Txn) ScanPrefix(tbl *Table, idx int, prefix []Value, fn func(rid RID, row Row) bool) error {
	b, err := t.scanBatch()
	if err != nil {
		return err
	}
	b.setPrefix(prefix)
	return t.scanDecoded(b, tbl, idx, b.from, b.to, fn)
}

func (t *Txn) scanDecoded(b *scanBatch, tbl *Table, idx int, fromK, toK []byte, fn func(rid RID, row Row) bool) error {
	var derr error
	err := t.scanEncoded(b, tbl, idx, fromK, toK, func(rid RID, p []byte) bool {
		var row Row
		if row, derr = DecodeRow(p); derr != nil {
			return false
		}
		return fn(rid, row)
	})
	if derr != nil {
		return derr
	}
	return err
}

// --- writes --------------------------------------------------------------
//
// A row crosses the write path in its encoded form, and from the moment its
// version can be seen that form lies in one place: the record's payload in
// the transaction's log buffer, which is the transaction's redo and, until
// the log is durable, where the version reads the row (Version.data). Update
// encodes the caller's Row and UpdateColumns splices the old payload straight
// into a record reserved for it (stage); Insert, whose record needs the RID
// that the uniqueness check -- which needs the key -- yields, encodes into
// the slot's scratch first and copies. Three rules hold the arrangement up:
//
//   - A record is complete -- payload written, checksum sealed, the version
//     pointing at it -- before the version is published to the indirection
//     array: a reader that finds the version may dereference it at once (the
//     transaction's own later reads; every snapshot once it commits).
//   - A write that fails after its record was staged and before its version
//     was published takes the record out of the buffer again (unstage).
//   - What happens to the buffer after a version is published touches no byte
//     a published payload covers: later records are appended behind it,
//     StampTxn writes an op byte and the CSN after the last record, a buffer
//     that grows is copied, not moved.
//
// Every write records its writeEntry as soon as its version is installed,
// before index maintenance: whatever fails afterwards aborts the
// transaction, and the abort uninstalls the version and hides the entries
// it added.

// Insert adds a new row and returns its RID. Unique-index violations abort
// with ErrDuplicateKey; conflicts with concurrent writers abort with
// ErrConflict.
func (t *Txn) Insert(tbl *Table, row Row) (RID, error) {
	if err := t.writable(); err != nil {
		return 0, err
	}
	if len(row) != len(tbl.Schema.Columns) {
		return 0, fmt.Errorf("core: row arity %d != %d columns", len(row), len(tbl.Schema.Columns))
	}
	s := t.slot
	s.rowbuf = EncodeRow(s.rowbuf[:0], row)
	_, err := s.view.Reset(s.rowbuf)
	if err == nil {
		s.kbuf, err = tbl.viewIndexKeyAppend(s.kbuf[:0], 0, &s.view, 0)
	}
	if err != nil {
		return 0, err
	}
	primary := tbl.indexes[0]

	// Serialize uniqueness-check + reservation per key.
	lock := primary.LockKey(s.kbuf)
	rid, havePrev, err := t.checkUnique(tbl, primary, s.kbuf, 0)
	var oldV *Version
	if err == nil {
		if havePrev {
			// The key maps to a RID whose chain is a visible committed
			// delete: reuse the RID by chaining a fresh version (keeps the
			// index entry stable).
			oldV = tbl.rows.Get(rid)
		} else {
			rid, err = tbl.rows.Alloc()
		}
	}
	if err != nil {
		lock.Unlock()
		return 0, t.failWith(err)
	}
	we, payload := t.stage(wal.OpInsert, tbl, rid, len(s.rowbuf))
	copy(payload, s.rowbuf)
	t.seal(&we, payload, oldV)
	if havePrev {
		if ok, cerr := tbl.rows.CompareAndSwap(rid, oldV, we.newV); cerr != nil || !ok {
			err = ErrConflict
		}
	} else {
		err = tbl.rows.Store(rid, we.newV)
	}
	if err != nil {
		t.unstage(&we)
		lock.Unlock()
		return 0, t.failWith(err)
	}
	t.wrote(we)
	tbl.liveRows.Add(1)
	if !havePrev {
		err = primary.InsertHint(s.kbuf, uint64(rid), &s.hint)
	}
	lock.Unlock()

	for i := 1; err == nil && i < len(tbl.indexes); i++ {
		if s.kbuf, err = tbl.viewIndexKeyAppend(s.kbuf[:0], i, &s.view, rid); err == nil {
			// A visible committed delete behind a unique secondary key is
			// free: its entry is shadowed.
			err = t.addIndexEntry(tbl, i, s.kbuf, rid)
		}
	}
	if err != nil {
		return 0, t.abortWith(err)
	}
	return rid, nil
}

// writable reports why the transaction cannot write right now, if it cannot.
func (t *Txn) writable() error {
	if t.finished {
		return ErrTxnDone
	}
	return t.e.writeBlocked()
}

// stage reserves, at the end of the transaction's log buffer, the record of a
// write to rid with an n-byte payload. It returns the write's entry so far
// and the payload's bytes where the log will take them from, for the caller
// to fill before seal.
func (t *Txn) stage(op byte, tbl *Table, rid RID, n int) (we writeEntry, payload []byte) {
	ws := t.writeSet()
	we.table, we.rid = tbl, rid
	ws.log, we.logOff, payload = wal.ReserveRecord(ws.log, op, tbl.ID, uint64(rid), n)
	we.frameOff = len(ws.log) - wal.FrameLen(n)
	return we, payload
}

// seal closes the staged record and builds the write's version over next,
// the version it supersedes: its row is payload, read where it lies in the
// log buffer; a nil payload makes it a delete marker. The version is ready to
// be published.
func (t *Txn) seal(we *writeEntry, payload []byte, next *Version) {
	ws := t.ws
	var frame []byte
	if payload != nil {
		frame = ws.log[we.frameOff:]
	}
	ws.log = wal.SealRecord(ws.log, we.logOff)
	we.newV, we.oldV = newVersion(t.tid, frame, next, we.logOff == 0), next
}

// publish swaps the sealed write's version in for the one it supersedes. A
// write that loses the swap is a conflict, and leaves the log buffer.
func (t *Txn) publish(we *writeEntry) error {
	ok, err := we.table.rows.CompareAndSwap(we.rid, we.oldV, we.newV)
	if err == nil && !ok {
		err = ErrConflict
	}
	if err != nil {
		t.unstage(we)
		return t.failWith(err)
	}
	return nil
}

// unstage takes the record of a write whose version was not published back
// out of the log buffer.
func (t *Txn) unstage(we *writeEntry) { t.ws.log = t.ws.log[:we.logOff] }

// wrote enters a write whose version is published.
func (t *Txn) wrote(we writeEntry) *writeEntry {
	ws := t.ws
	if p, ok := we.newV.resident(); ok {
		ws.private += len(p)
	}
	ws.writes = append(ws.writes, we)
	return &ws.writes[len(ws.writes)-1]
}

// addIndexEntry maps key to rid in index i, under the key's lock, and after
// the uniqueness check when the index is unique. The lock also orders the
// insert against a key drop (dropKeysOf): an entry an older version put
// there may be the one this write needs, and a drop that read the chain
// before this write's version was published would otherwise delete it after
// this insert found it present.
func (t *Txn) addIndexEntry(tbl *Table, i int, key []byte, rid RID) error {
	ix, h := tbl.indexes[i], &t.slot.hint
	lock := ix.LockKey(key)
	defer lock.Unlock()
	if tbl.Schema.Indexes[i].Unique {
		if _, _, err := t.checkUnique(tbl, ix, key, rid); err != nil {
			return err
		}
	}
	return ix.InsertHint(key, uint64(rid), h)
}

// checkUnique inspects the chain behind an existing index entry for key.
// It returns (rid, reusable) where reusable means the key's record is a
// committed delete visible to t (insert may chain onto it). An entry that
// already maps to self -- the record being written, whose key flipped back
// to one it held before -- is no violation. Errors: ErrDuplicateKey for a
// live or pending record, ErrConflict for an uncommitted writer.
func (t *Txn) checkUnique(tbl *Table, ix *index.Index, key []byte, self RID) (RID, bool, error) {
	ridU, ok, err := ix.GetHint(key, &t.slot.hint)
	if err != nil {
		return 0, false, err
	}
	if !ok || RID(ridU) == self {
		return 0, false, nil
	}
	rid := RID(ridU)
	head := tbl.rows.Get(rid)
	if head == nil {
		return 0, false, nil // GC already cleared the record; stale entry
	}
	raw := head.tmin.Load()
	if isTID(raw) && raw != t.tid {
		// Pending insert/update by another transaction.
		return 0, false, ErrConflict
	}
	if v := t.visibleVersion(head); v != nil && !v.tomb() {
		// Live row under our snapshot... but also guard against a
		// committed-but-invisible newer live version (first-committer
		// wins on insert too).
		return 0, false, ErrDuplicateKey
	}
	// Invisible or deleted. If the newest version is a delete -- committed,
	// or our own in this transaction -- the RID is reusable; if the newest
	// is a live version committed after our snapshot, that is a conflict.
	if head.tomb() {
		return rid, true, nil
	}
	return 0, false, ErrConflict
}

// Update replaces the row at rid. The caller supplies the complete new row
// (Section 4.2: versions store full record contents).
func (t *Txn) Update(tbl *Table, rid RID, row Row) error {
	if err := t.writable(); err != nil {
		return err
	}
	if len(row) != len(tbl.Schema.Columns) {
		return fmt.Errorf("core: row arity %d != %d columns", len(row), len(tbl.Schema.Columns))
	}
	head, err := t.fetchForWrite(tbl, rid)
	if err != nil {
		return err
	}
	we, payload := t.stage(wal.OpUpdate, tbl, rid, encodedRowLen(row))
	EncodeRow(payload[:0], row)
	return t.installUpdate(head, we, payload)
}

// UpdateColumns is the point UPDATE in one call: it finds the row through
// unique index idx with one probe, checks that every where column holds its
// value, and replaces the set columns, building the new payload by splicing
// the old one -- no column is decoded and the unchanged ones are copied as
// they are. It returns false, with nothing written, when the row does not
// satisfy where, and ErrNotFound when no visible row has the key.
func (t *Txn) UpdateColumns(tbl *Table, idx int, key []Value, where, set []ColValue) (bool, error) {
	if err := t.writable(); err != nil {
		return false, err
	}
	var rid RID
	// The read half is GetByKeyRaw: the snapshot's visible row, verified to
	// carry the key. It leaves the row in the slot's view.
	err := t.GetByKeyRaw(tbl, idx, key, func(r RID, _ []byte) error {
		rid = r
		return nil
	})
	if err != nil {
		return false, err
	}
	s := t.slot
	for _, w := range where {
		if !s.view.ColEqual(w.Col, w.Val) {
			return false, nil
		}
	}
	// The write half: the visible row must also be the newest (first
	// committer wins), in which case it is the one in the view.
	head, err := t.writableHead(tbl, rid)
	if err != nil {
		return false, err
	}
	n, err := s.view.SplicedLen(set)
	if err != nil {
		return false, err
	}
	we, payload := t.stage(wal.OpUpdate, tbl, rid, n)
	if _, err := s.view.AppendSplice(payload[:0], set); err != nil {
		t.unstage(&we)
		return false, err
	}
	return true, t.installUpdate(head, we, payload)
}

// installUpdate chains the staged write, whose row is payload, onto head, the
// row's newest version, whose encoded row is in the slot's view.
func (t *Txn) installUpdate(head *Version, staged writeEntry, payload []byte) error {
	tbl, rid := staged.table, staged.rid
	t.seal(&staged, payload, head)
	if err := t.publish(&staged); err != nil {
		return err
	}
	we := t.wrote(staged)
	// Index maintenance for key-changing updates: add entries for the new
	// keys, keep the old entries (older snapshots still resolve through
	// them); old entries die with the old version at GC. Both keys come from
	// the payloads; the usual update changes no key column and builds none.
	s := t.slot
	_, err := s.view2.Reset(payload)
	if err != nil {
		return t.abortWith(err)
	}
	for i := range tbl.indexes {
		if s.view.sameCols(&s.view2, tbl.Schema.Indexes[i].Columns) {
			continue
		}
		if s.kbuf, err = tbl.viewIndexKeyAppend(s.kbuf[:0], i, &s.view, rid); err == nil {
			s.kbuf2, err = tbl.viewIndexKeyAppend(s.kbuf2[:0], i, &s.view2, rid)
		}
		if err == nil && string(s.kbuf) != string(s.kbuf2) {
			we.keysChanged = true
			err = t.addIndexEntry(tbl, i, s.kbuf2, rid)
		}
		if err != nil {
			return t.abortWith(err)
		}
	}
	return nil
}

// Delete removes the row at rid by installing a tombstone version.
func (t *Txn) Delete(tbl *Table, rid RID) error {
	if err := t.writable(); err != nil {
		return err
	}
	head, err := t.writableHead(tbl, rid)
	if err != nil {
		return err
	}
	// All of the row's index entries become garbage once the delete is
	// reclaimable.
	we, _ := t.stage(wal.OpDelete, tbl, rid, 0)
	we.keysChanged = true
	t.seal(&we, nil, head)
	if err := t.publish(&we); err != nil {
		return err
	}
	t.wrote(we)
	tbl.liveRows.Add(-1)
	return nil
}

// writableHead performs first-committer-wins conflict detection: the row's
// newest version must be the transaction's own write or visible to it.
func (t *Txn) writableHead(tbl *Table, rid RID) (*Version, error) {
	head := tbl.rows.Get(rid)
	if head == nil {
		return nil, ErrNotFound
	}
	raw := head.tmin.Load()
	if isTID(raw) && raw != t.tid || !isTID(raw) && raw > t.begin {
		// Another transaction's pending write, or one committed after our
		// snapshot: first committer wins.
		t.e.mConflicts.Inc()
		return nil, t.failWith(ErrConflict)
	}
	if head.tomb() {
		return nil, ErrNotFound
	}
	return head, nil
}

// fetchForWrite is writableHead leaving the head's encoded row in the
// slot's view for the caller to derive the old index keys from.
func (t *Txn) fetchForWrite(tbl *Table, rid RID) (*Version, error) {
	head, err := t.writableHead(tbl, rid)
	if err != nil {
		return nil, err
	}
	p, err := head.payload(t.e)
	if err != nil {
		return nil, err
	}
	if _, err := t.slot.view.Reset(p); err != nil {
		return nil, err
	}
	return head, nil
}

// failWith aborts the transaction (if the error demands it) and returns err.
func (t *Txn) failWith(err error) error {
	switch err {
	case ErrConflict, ErrDuplicateKey:
		_ = t.Abort()
	}
	return err
}

// abortWith fails a write whose version is already installed: whatever the
// error, only an abort takes the version and its index entries out again.
func (t *Txn) abortWith(err error) error {
	_ = t.Abort()
	return err
}
