package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/raceflag"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// accountsSchema has what the write path's index maintenance distinguishes:
// a unique secondary (email) and a non-unique one (city).
func accountsSchema() *Schema {
	return &Schema{
		Name: "accounts",
		Columns: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "email", Kind: KindString},
			{Name: "city", Kind: KindString},
			{Name: "balance", Kind: KindInt},
		},
		Indexes: []IndexDef{
			{Name: "pk", Columns: []int{0}, Unique: true},
			{Name: "by_email", Columns: []int{1}, Unique: true},
			{Name: "by_city", Columns: []int{2}, Unique: false},
		},
	}
}

func account(id int64, email, city string) Row {
	return Row{I(id), S(email), S(city), I(id * 100)}
}

func begin(t *testing.T, e *Engine, worker int) *Txn {
	t.Helper()
	tx, err := e.Begin(worker)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// assertNeverLogged fails the test if a record of e's log, or a row of the
// engine recovered from it, is row: a write that failed left nothing of
// itself in the redo. It closes e.
func assertNeverLogged(t *testing.T, e *Engine, table string, row Row) {
	t.Helper()
	want := EncodeRow(nil, row)
	for _, seg := range e.Log().Segments() {
		err := scanSegment(e.Log(), seg, func(addr wal.Addr, rec wal.Record) bool {
			if bytes.Equal(rec.Payload, want) {
				t.Errorf("the log holds the failed write of %v at %v", row, addr)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rec, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	tbl, err := rec.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	tx := begin(t, rec, 0)
	defer tx.Abort()
	if err := tx.ScanKey(tbl, 0, nil, nil, func(_ RID, got Row) bool {
		if fmt.Sprint(got) == fmt.Sprint(row) {
			t.Errorf("recovery brought the failed write of %v back", row)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedInsertReleasesItsVersion: an INSERT that fails on a unique
// secondary after its version and primary entry are in place must take both
// out again; the primary key it tried stays insertable. Its record, appended
// before the version was published, goes nowhere: the slot's next transaction
// -- which takes over the failed one's write-set entries, not its buffer --
// logs its own write alone.
func TestFailedInsertReleasesItsVersion(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, accountsSchema())
	tx := begin(t, e, 0)
	if _, err := tx.Insert(tbl, account(1, "a", "x")); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)

	tx = begin(t, e, 0)
	if _, err := tx.Insert(tbl, account(2, "a", "x")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("insert of a taken email: %v, want ErrDuplicateKey", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("the failed insert did not abort its transaction: %v", err)
	}
	if n := tbl.LiveRows(); n != 1 {
		t.Fatalf("LiveRows = %d after the failed insert, want 1", n)
	}

	tx = begin(t, e, 0)
	if _, err := tx.Insert(tbl, account(2, "b", "x")); err != nil {
		t.Fatalf("insert of the primary key the failed insert tried: %v", err)
	}
	commit(t, tx)
	tx = begin(t, e, 0)
	if _, row, err := tx.GetByKey(tbl, 1, S("a")); err != nil || row[0].Int() != 1 {
		t.Fatalf("email a resolves to %v (%v), want row 1", row, err)
	}
	if _, row, err := tx.GetByKey(tbl, 0, I(2)); err != nil || row[1].Str() != "b" {
		t.Fatalf("row 2 reads %v (%v)", row, err)
	}
	tx.Abort()
	assertNeverLogged(t, e, "accounts", account(2, "a", "x"))
}

// TestUnpublishedWriteLeavesTheLogBuffer: a write whose record is staged and
// sealed but whose version is never published -- it lost the race for the
// indirection entry -- takes the record back out of the buffer, and the
// transaction goes on: what it commits is its other writes, byte for byte.
func TestUnpublishedWriteLeavesTheLogBuffer(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.LogStreams = 1 })
	tbl := mustTable(t, e, usersSchema())
	lost := Row{I(7), S("lost-the-race"), I(7)}
	tx := begin(t, e, 0)
	if _, err := tx.Insert(tbl, Row{I(1), S("before"), I(1)}); err != nil {
		t.Fatal(err)
	}
	before := len(tx.ws.log)
	we, payload := tx.stage(wal.OpInsert, tbl, 99, encodedRowLen(lost))
	EncodeRow(payload[:0], lost)
	tx.seal(&we, payload, nil)
	tx.unstage(&we)
	if len(tx.ws.log) != before || len(tx.ws.writes) != 1 {
		t.Fatalf("after unstage the buffer holds %d bytes and %d writes, want %d and 1", len(tx.ws.log), len(tx.ws.writes), before)
	}
	if _, err := tx.Insert(tbl, Row{I(2), S("after"), I(2)}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	records := 0
	for _, seg := range e.Log().Segments() {
		if err := scanSegment(e.Log(), seg, func(_ wal.Addr, rec wal.Record) bool {
			records++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if records != 2 {
		t.Errorf("the log holds %d records, want the two published writes'", records)
	}
	assertNeverLogged(t, e, "users", lost)
}

// TestFailedUpdateReleasesItsVersion is the same for a key-changing UPDATE
// that collides on the unique secondary, its row encoded straight into the
// reserved record.
func TestFailedUpdateReleasesItsVersion(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, accountsSchema())
	tx := begin(t, e, 0)
	for id, email := range map[int64]string{1: "a", 2: "b"} {
		if _, err := tx.Insert(tbl, account(id, email, "x")); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tx)

	tx = begin(t, e, 0)
	rid, _, err := tx.GetByKey(tbl, 0, I(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, rid, account(2, "a", "y")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("update onto a taken email: %v, want ErrDuplicateKey", err)
	}

	tx = begin(t, e, 0)
	if err := tx.Update(tbl, rid, account(2, "c", "y")); err != nil {
		t.Fatalf("update of the row the failed update touched: %v", err)
	}
	commit(t, tx)
	tx = begin(t, e, 0)
	if _, row, err := tx.GetByKey(tbl, 1, S("c")); err != nil || row[0].Int() != 2 {
		t.Fatalf("email c resolves to %v (%v), want row 2", row, err)
	}
	if _, _, err := tx.GetByKey(tbl, 1, S("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the old email still resolves: %v", err)
	}
	tx.Abort()
	assertNeverLogged(t, e, "accounts", account(2, "a", "y"))
}

// TestLiveRowsAbortMirrorsWrites: an aborted insert onto a deleted row's RID
// takes back the +1 it counted, in a transaction of its own and after a
// delete in the same one.
func TestLiveRowsAbortMirrorsWrites(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "u", 1)
	tx := begin(t, e, 0)
	if err := tx.Delete(tbl, rid); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	tx = begin(t, e, 0)
	if got, err := tx.Insert(tbl, Row{I(1), S("again"), I(2)}); err != nil || got != rid {
		t.Fatalf("re-insert: rid %v (%v), want the deleted row's %v", got, err, rid)
	}
	tx.Abort()
	if n := tbl.LiveRows(); n != 0 {
		t.Fatalf("LiveRows = %d after delete, commit, re-insert, abort; want 0", n)
	}

	insertUser(t, e, tbl, 0, 2, "v", 1)
	tx = begin(t, e, 0)
	rid2, _, err := tx.GetByKey(tbl, 0, I(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tbl, rid2); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tbl, Row{I(2), S("v2"), I(2)}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if n := tbl.LiveRows(); n != 1 {
		t.Fatalf("LiveRows = %d after delete + re-insert + abort in one transaction; want 1", n)
	}
}

// --- allocation gates -------------------------------------------------------

// TestWritePathAllocs holds the engine's write path to what outlives a
// transaction: the version of an insert or an update (an int key's RID is a
// word in its index node's slot, no leaf). A transaction begun again in the
// same handle allocates nothing of its own: its TID resolves through its
// slot, its log buffer is carved from the slot's arena, and a sync Commit
// waits on the channel the handle keeps.
func TestWritePathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := testEngine(t, func(c *Config) { c.Workers = 2; c.GCEveryNCommits = -1 })
	schema := usersSchema()
	schema.Indexes = schema.Indexes[:1] // the primary key alone: inline in its slot
	tbl := mustTable(t, e, schema)
	next := int64(0)
	row := Row{I(0), S("a-name-of-some-length"), I(0)}
	var tx Txn
	insertTxn := func(n int) func() {
		return func() {
			if err := e.BeginInto(&tx, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				row[0], row[2] = I(next), I(next*3)
				next++
				if _, err := tx.Insert(tbl, row); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The version per row; the index's inner nodes and the log arenas
	// amortised.
	if avg := testing.AllocsPerRun(200, insertTxn(1)); avg > 2 {
		t.Errorf("a one-insert transaction allocates %.1f times, want <= 2", avg)
	}
	// The same: no allocation per row but the one that stays.
	if avg := testing.AllocsPerRun(20, insertTxn(128)); avg > 128+8 {
		t.Errorf("a 128-insert transaction allocates %.1f times, want <= %d", avg, 128+8)
	}

	key := []Value{I(0)}
	set := []ColValue{{Col: 2, Val: I(0)}}
	where := []ColValue{{Col: 1, Val: row[1]}}
	n := int64(0)
	update := func() {
		if err := e.BeginInto(&tx, 0); err != nil {
			t.Fatal(err)
		}
		n++
		key[0], set[0].Val = I(n%next), I(n)
		if ok, err := tx.UpdateColumns(tbl, 0, key, where, set); err != nil || !ok {
			t.Fatal(ok, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// The version.
	if avg := testing.AllocsPerRun(200, update); avg > 1 {
		t.Errorf("a point-update transaction allocates %.1f times, want <= 1", avg)
	}
}

// TestGCPassAllocFree: once a slot's GC bag and reap scratch have grown, what
// a commit hands GC and the pass that reclaims it allocate nothing. The pass
// keeps the entries not yet due in place in the bag and moves the due ones to
// the slot's scratch; built afresh each pass, the two cost about an
// allocation each per commit, counted in every process-wide allocation gate.
func TestGCPassAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := testEngine(t, func(c *Config) { c.Workers = 1 })
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "hot", 0)
	tx, _ := e.Begin(0)
	if err := tx.Update(tbl, rid, Row{I(1), S("hot"), I(1)}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	newV := tbl.rows.Get(rid)
	oldV := newV.next.Load()
	e.RunGC()
	// The update's two versions, retired again and again: one entry due at
	// csn, reclaimed by each pass, and one never due, kept by each.
	csn := e.CurrentCSN()
	slot := &e.workers[0]
	we := []writeEntry{{table: tbl, rid: rid, newV: newV, oldV: oldV}}
	slot.retireWrites(we, csn+1)
	allocs := testing.AllocsPerRun(100, func() {
		newV.next.Store(oldV) // unlinked by the last pass
		slot.retireWrites(we, csn)
		if n := e.gcWorker(0, csn); n != 1 {
			t.Fatalf("a GC pass reclaimed %d versions, want 1", n)
		}
	})
	if allocs != 0 {
		t.Errorf("a commit's retire and a GC pass allocate %.2f times, want 0", allocs)
	}
	if len(slot.retired) != 1 {
		t.Errorf("the bag holds %d entries after the passes, want the 1 never due", len(slot.retired))
	}
}

// TestWorkerSlotIsWholeCacheLines: a worker slot is a whole number of
// 64-byte cache lines, so in Engine.workers no line holds two slots, and
// one slot's commit and index hint writes do not false-share with the next
// slot's Begin. A field added to workerSlot changes its padding.
func TestWorkerSlotIsWholeCacheLines(t *testing.T) {
	if n := reflect.TypeOf(workerSlot{}).Size(); n%64 != 0 {
		t.Fatalf("a workerSlot is %d bytes, not a multiple of 64: re-pad it", n)
	}
}

// TestRowFootprint: what a resident row costs the engine beside its bytes in
// the log. Its version is the allocator's 32-byte class: no end timestamp,
// the payload one pointer to bytes that carry their own length, and the flags
// in the address word (any of the three back in the version puts it in the
// 48-byte class). Its indirection entry is one
// word. Its checkpoint entry, over two log streams whose transactions
// interleave their RIDs, is at most 6 bytes of address and CSN, and at most 5
// of record framing and keys for its two indexes.
func TestRowFootprint(t *testing.T) {
	if n := reflect.TypeOf(Version{}).Size(); n != 32 {
		t.Errorf("a Version is %d bytes, want 32", n)
	}
	e := testEngine(t, func(c *Config) { c.Workers = 2; c.LogStreams = 2; c.GCEveryNCommits = -1 })
	tbl := mustTable(t, e, usersSchema())
	const rows, perTxn = 20_000, 50
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(w * perTxn); i < rows; i += 2 * perTxn {
				tx, err := e.Begin(w)
				if err != nil {
					t.Error(err)
					return
				}
				for j := i; j < i+perTxn; j++ {
					if _, err := tx.Insert(tbl, Row{I(j), S(fmt.Sprintf("user-%d", j)), I(j)}); err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// A page of 4,096 slots per 4,096 RIDs handed out.
	if pages := int64(rows/4096 + 1); tbl.rows.SlotBytes() != pages*4096*8 {
		t.Errorf("%d rows hold %d bytes of PIA slots, want %d pages of 8-byte entries", rows, tbl.rows.SlotBytes(), pages)
	}
	// The indexes' ledger entry is their trees' nodes, walked on the scrape.
	var ixBytes int64
	for _, ix := range tbl.indexes {
		ixBytes += ix.NodeBytes()
	}
	if got := metric(e, "index.node_bytes"); ixBytes == 0 || got != ixBytes {
		t.Errorf("index.node_bytes = %d, the table's indexes hold %d bytes", got, ixBytes)
	}
	t.Logf("indexes: %d bytes for %d rows", ixBytes, rows)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img := e.Obs().Gauge("core.checkpoint_image_bytes").Load()
	addr, keys := imageParts(t, e)
	if addr+keys != img {
		t.Fatalf("the image's parts add up to %d bytes, the image is %d", addr+keys, img)
	}
	t.Logf("checkpoint image: %d bytes for %d rows, %d of them keys and framing", img, rows, keys)
	if per := float64(addr) / rows; per > 6 {
		t.Errorf("the checkpoint image's addresses and CSNs are %d bytes for %d rows, %.2f per entry, want <= 6", addr, rows, per)
	}
	if per := float64(keys) / rows; per > 5 {
		t.Errorf("the checkpoint image's keys and framing are %d bytes for %d rows, %.2f per entry, want <= 5", keys, rows, per)
	}
}

// imageParts splits e's newest checkpoint image into its bytes of addresses
// and CSNs -- the image re-encoded without keys, less its framing -- and the
// rest, keys and framing: a payload length an entry spells because it
// differs from the previous one's under its segment key in the run.
func imageParts(t *testing.T, e *Engine) (addr, keys int64) {
	t.Helper()
	p, err := e.svc.Open(e.lastImage)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, p.Size())
	if _, err := p.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	blocks, err := imageBlocks(b[1:])
	if err != nil {
		t.Fatal(err)
	}
	bare := imageWriter{buf: []byte{checkpointHeader}}
	var r imageReader
	framing := 0
	for _, body := range blocks {
		table, lastN := uint32(0), map[uint64]int{}
		if err := r.readBlock(body, true, func(en *imageEntry) error {
			if en.table != table {
				table = en.table
				clear(lastN)
			}
			if seg := en.addr >> 32; lastN[seg] != en.n {
				framing += len(binary.AppendUvarint(nil, uint64(en.n)))
				lastN[seg] = en.n
			}
			c := *en
			c.keys = nil
			bare.add(&c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		bare.closeBlock()
	}
	addr = int64(len(bare.buf) - framing)
	return addr, int64(len(b)) - addr
}

// --- the transaction's buffer as the row's home ---------------------------------

// TestPreDurablePayloadOutlivesTheSwing: a reader that took a version's
// payload before its transaction was durable -- the bytes in the
// transaction's log buffer -- may hold them across the swing onto the log and
// for as long as it likes: the slot's next 200 transactions, which reuse the
// write set's entries, do not touch them. A buffer recycled into a later
// transaction would show here as a changed row (and, under -race, as a write
// racing the reader).
func TestPreDurablePayloadOutlivesTheSwing(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.Workers = 2; c.LogStreams = 1; c.GCEveryNCommits = -1 })
	tbl := mustTable(t, e, usersSchema())
	name := func(id int64) string { return fmt.Sprintf("held-across-the-swing-%04d", id) }
	const held = 5
	tx := begin(t, e, 0)
	var versions [held]*Version
	var payloads, want [held][]byte
	for i := range versions {
		rid, err := tx.Insert(tbl, Row{I(int64(i)), S(name(int64(i))), I(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		versions[i] = tbl.rows.Get(rid)
		payloads[i], _ = versions[i].resident()
		want[i] = append([]byte(nil), payloads[i]...)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			for i := range payloads {
				if !bytes.Equal(payloads[i], want[i]) {
					t.Errorf("row %d changed under a reader that held its pre-durable payload", i)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	commit(t, tx)
	for i, v := range versions {
		if p, _ := v.resident(); &p[0] == &payloads[i][0] || !logBacked(t, e, v) {
			t.Fatalf("row %d still reads the transaction's buffer after Commit returned", i)
		}
	}
	for n := int64(0); n < 200; n++ {
		tx := begin(t, e, 0)
		for i := int64(0); i < held; i++ {
			id := held + n*held + i
			if _, err := tx.Insert(tbl, Row{I(id), S(name(id)), I(id)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
	}
	close(stop)
	reader.Wait()
	if n := privateBytes(e); n != 0 {
		t.Errorf("%d bytes on the private-payload ledger with every commit durable", n)
	}
}

// TestOwnWritesStayCompleteAsTheBufferGrows: a transaction reads its own
// writes out of its log buffer, and that buffer is copied to a larger one as
// later writes fill it. Every insert, Update and UpdateColumns the transaction
// made -- of rows it inserted itself and of a row committed before it began --
// reads back whole after each growth, through getRaw and ScanRangeRaw: its
// record was complete before its version was published, and a growth copies
// the buffer without touching a published payload. A later snapshot then
// reads the same rows, committed.
func TestOwnWritesStayCompleteAsTheBufferGrows(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.Workers = 2 })
	tbl := mustTable(t, e, usersSchema())
	const rounds = 300
	rids := map[int64]RID{}
	want := map[int64][]byte{}
	put := func(row Row) { want[row[0].Int()] = EncodeRow(nil, row) }
	seed := begin(t, e, 0)
	rid0, err := seed.Insert(tbl, swingRow(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	commit(t, seed)
	rids[0] = rid0
	put(swingRow(0, 0))

	readAll := func(tx *Txn, when string) {
		t.Helper()
		for id, rid := range rids {
			if err := tx.getRaw(tbl, rid, func(p []byte) error {
				if !bytes.Equal(p, want[id]) {
					return fmt.Errorf("reads %x, want %x", p, want[id])
				}
				return nil
			}); err != nil {
				t.Fatalf("%s: GetRaw of row %d: %v", when, id, err)
			}
		}
		seen := 0
		from, to := prefixRange(S("w0"))
		if err := tx.ScanRangeRaw(tbl, 1, from, to, func(_, p []byte) bool {
			row, err := DecodeRow(p)
			if err != nil || !bytes.Equal(p, want[row[0].Int()]) {
				t.Fatalf("%s: ScanRangeRaw reads %x (%v)", when, p, err)
			}
			seen++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if seen != len(want) {
			t.Fatalf("%s: ScanRangeRaw saw %d rows, want %d", when, seen, len(want))
		}
	}

	tx := begin(t, e, 0)
	growths, lastCap := 0, 0
	for ver := int64(1); ver <= rounds; ver++ {
		rid, err := tx.Insert(tbl, swingRow(ver, 0))
		if err != nil {
			t.Fatal(err)
		}
		rids[ver] = rid
		put(swingRow(ver, 0))
		// Rewrite an earlier row: the committed one, or one this transaction
		// inserted.
		k := ver / 2
		if ver%2 == 0 {
			err = tx.Update(tbl, rids[k], swingRow(k, ver))
		} else {
			_, err = tx.UpdateColumns(tbl, 0, []Value{I(k)}, nil, []ColValue{{Col: 2, Val: I(k + ver*swingModulus)}})
		}
		if err != nil {
			t.Fatal(err)
		}
		put(swingRow(k, ver))
		if c := cap(tx.ws.log); c != lastCap {
			if lastCap != 0 {
				growths++
				readAll(tx, fmt.Sprintf("after growth %d", growths))
			}
			lastCap = c
		}
	}
	if growths < 3 {
		t.Fatalf("the log buffer grew %d times: the test did not test", growths)
	}
	readAll(tx, "before commit")
	commit(t, tx)

	later := begin(t, e, 1)
	defer later.Abort()
	readAll(later, "a later snapshot")
}

// --- WAL bytes --------------------------------------------------------------

// walSegment is one log segment's bytes.
type walSegment struct {
	id uint16
	b  []byte
}

// walSegments returns every log segment, in segment order.
func walSegments(t *testing.T, e *Engine) []walSegment {
	t.Helper()
	var segs []walSegment
	for _, seg := range e.Log().Segments() {
		id, ok := e.Log().Directory().Lookup(seg)
		if !ok {
			t.Fatalf("segment %d not in the directory", seg)
		}
		p, err := e.Service().Open(id)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, p.Size())
		if _, err := p.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, walSegment{seg, b})
	}
	return segs
}

// walImageHash hashes a log image, segment by segment.
func walImageHash(segs []walSegment) string {
	h := sha256.New()
	for _, s := range segs {
		fmt.Fprintf(h, "segment %d: %d bytes\n", s.id, len(s.b))
		h.Write(s.b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// walImageRun logs a fixed sequence of inserts, updates, a delete, a
// re-insert and an abort on one stream; the updates re-encode a Row or, with
// splice, splice the stored payload.
func walImageRun(t *testing.T, splice bool) *Engine {
	t.Helper()
	e := testEngine(t, func(c *Config) { c.Workers = 1; c.LogStreams = 1; c.GCEveryNCommits = -1 })
	tbl := mustTable(t, e, usersSchema())
	update := func(tx *Txn, id int64, name *string, balance int64) {
		t.Helper()
		if splice {
			set := []ColValue{{Col: 2, Val: I(balance)}}
			if name != nil {
				set = append(set, ColValue{Col: 1, Val: S(*name)})
			}
			if ok, err := tx.UpdateColumns(tbl, 0, []Value{I(id)}, nil, set); err != nil || !ok {
				t.Fatal(ok, err)
			}
			return
		}
		rid, row, err := tx.GetByKey(tbl, 0, I(id))
		if err != nil {
			t.Fatal(err)
		}
		if name != nil {
			row[1] = S(*name)
		}
		row[2] = I(balance)
		if err := tx.Update(tbl, rid, row); err != nil {
			t.Fatal(err)
		}
	}
	for txn := int64(0); txn < 4; txn++ {
		tx := begin(t, e, 0)
		for i := int64(0); i < 8; i++ {
			id := txn*8 + i
			if _, err := tx.Insert(tbl, Row{I(id), S(fmt.Sprintf("name-%d", id%5)), I(id * 1000)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
	}
	tx := begin(t, e, 0)
	renamed := "renamed"
	for _, id := range []int64{3, 9, 27} {
		update(tx, id, &renamed, -id)
	}
	rid, _, err := tx.GetByKey(tbl, 0, I(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tbl, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tbl, Row{I(12), Null, I(1 << 40)}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	// An aborted transaction leaves nothing in the log.
	tx = begin(t, e, 0)
	if _, err := tx.Insert(tbl, Row{I(500), S("gone"), I(0)}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	tx = begin(t, e, 0)
	update(tx, 27, nil, 77)
	commit(t, tx)
	return e
}

// The log image of walImageRun. trailerImage is today's: every record laid
// out alike, a transaction's CSN a uvarint after its last record.
// csnFirstImage is the image every commit up to the one before this kept, in
// which a transaction's first record carried its CSN in eight bytes after
// its op byte (SRSS is memory-only: no image in the old format outlives its
// process, so nothing has to read both).
const (
	csnFirstImage = "e25be58bb526e29944192bb51313b46ebb27769dcb66ff24a9287eefd20ef7c0"
	trailerImage  = "1743d50788afa5abd5e71b6444c7bedc2cb6e97206c5e51e14bf1db52b42787e"
)

// TestWALImageUnchanged pins the log format byte for byte, whether the
// updates re-encode a Row or splice the stored payload. Replicas, recovery
// and log_bytes_per_user_byte depend on nothing here moving.
func TestWALImageUnchanged(t *testing.T) {
	for _, splice := range []bool{false, true} {
		if got := walImageHash(walSegments(t, walImageRun(t, splice))); got != trailerImage {
			t.Errorf("splice=%v: WAL image hash %s, want %s", splice, got, trailerImage)
		}
	}
}

// TestWALImageOnlyFramingMoved shows that the re-freeze of trailerImage moved
// nothing but where a transaction keeps its CSN: move each transaction's CSN
// from the trailer after its last record back into its first, as eight bytes
// right after the op byte, and the log is csnFirstImage again, byte for
// byte: every mark, payload, table, RID and checksum is what it was. Each of
// the six transactions is 8 - uvarintLen(CSN) bytes shorter.
func TestWALImageOnlyFramingMoved(t *testing.T) {
	e := walImageRun(t, false)
	segs := walSegments(t, e)
	records, txns, saved, shrunk := 0, 0, 0, 0
	for i, s := range segs {
		old := s.b[:1:1] // byte 0 is the segment header
		end, err := e.Log().ScanSegmentFrom(s.id, 0, func(txn []wal.Entry) bool {
			for j, r := range txn {
				at := int(r.Addr.Offset())
				rec := s.b[at : at+wal.RecordLen(r.Table, r.RID, len(r.Payload))]
				if j == 0 {
					old = binary.LittleEndian.AppendUint64(append(old, rec[0]), r.CSN)
					rec = rec[1:]
				}
				old = append(old, rec...)
			}
			records, txns = records+len(txn), txns+1
			saved += 8 - wal.TrailerLen(txn[0].CSN)
			return true
		})
		if err != nil || end != int64(len(s.b)) {
			t.Fatalf("segment %d: scan stopped at %d of %d: %v", s.id, end, len(s.b), err)
		}
		shrunk += len(old) - len(s.b)
		segs[i].b = old
	}
	if records != 4*8+5+1 || txns != 6 || saved != 6*7 || shrunk != saved {
		t.Errorf("walked %d records in %d transactions, %d bytes shorter, %d saved by the CSNs; want 38 in 6, 42 and 42", records, txns, shrunk, saved)
	}
	if got := walImageHash(segs); got != csnFirstImage {
		t.Errorf("with each CSN in its first record the image hashes to %s, want the parent's %s", got, csnFirstImage)
	}
}

// TestTransactionLogBytes counts what logging a transaction as the unit, its
// CSN a trailer, saves: a transaction pays its CSN once, in uvarintLen(CSN)
// bytes -- 8 - uvarintLen(CSN) fewer than a fixed-width CSN in its first
// record -- so a 128-insert transaction's buffer is its records and one
// trailer, 127 trailers shorter than its records each written as a
// one-record transaction, and a one-insert transaction's buffer is byte for
// byte that one record and its trailer.
func TestTransactionLogBytes(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.LogStreams = 1 })
	tbl := mustTable(t, e, usersSchema())
	next := int64(0)
	for _, n := range []int{128, 1} {
		tx := begin(t, e, 0)
		var first RID
		var records [][]byte // the same writes, each a record of its own
		for i := 0; i < n; i++ {
			row := Row{I(next), S(fmt.Sprintf("name-%d", next)), I(next * 3)}
			next++
			rid, err := tx.Insert(tbl, row)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = rid
			}
			rec, _ := wal.AppendRecord(nil, wal.OpInsert, tbl.ID, uint64(rid), EncodeRow(nil, row))
			records = append(records, rec)
		}
		commit(t, tx)
		var standalone []byte
		recBytes := 0
		for _, rec := range records {
			recBytes += len(rec)
			standalone = append(standalone, wal.StampTxn(rec, 0, tx.csn)...)
		}
		// The transaction is the last thing its stream logged.
		at := tbl.rows.Get(first).Addr()
		var logged []byte
		for _, s := range walSegments(t, e) {
			if s.id == at.Segment() {
				logged = s.b[at.Offset():]
			}
		}
		trailer := wal.TrailerLen(tx.csn)
		if len(logged) != recBytes+trailer || trailer >= 8 {
			t.Errorf("a %d-insert transaction logs %d bytes, its records are %d and its CSN %d: want the CSN paid once, in under 8 bytes", n, len(logged), recBytes, trailer)
		}
		if saved := len(standalone) - len(logged); saved != (n-1)*trailer {
			t.Errorf("a %d-insert transaction logs %d bytes, its records on their own %d: %d saved, want %d", n, len(logged), len(standalone), saved, (n-1)*trailer)
		}
		if n == 1 && !bytes.Equal(logged, standalone) {
			t.Errorf("a one-insert transaction logs %x, its record on its own is %x", logged, standalone)
		}
	}
}

// --- abort ------------------------------------------------------------------

// tableImage is everything an abort must put back: per index the entries of
// live rows in key order (an entry left behind by a committed delete is
// garbage either way: a unique key's may be taken over, and lost, by an
// insert that then aborts), the version each RID's chain starts at, and the
// row count.
type tableImage struct {
	entries [][]string
	heads   map[RID]*Version
	live    int64
}

func imageOf(t *testing.T, tbl *Table) tableImage {
	t.Helper()
	img := tableImage{heads: map[RID]*Version{}, live: tbl.LiveRows()}
	for i := 0; i < tbl.NumIndexes(); i++ {
		var es []string
		if err := tbl.Index(i).Scan(nil, nil, func(k []byte, rid uint64) bool {
			if head := tbl.Rows().Get(RID(rid)); head != nil && !head.Tomb() {
				es = append(es, fmt.Sprintf("%x=%d", k, rid))
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		img.entries = append(img.entries, es)
	}
	tbl.Rows().Range(func(rid RID, v *Version) bool {
		img.heads[rid] = v
		return true
	})
	return img
}

func (a tableImage) diff(b tableImage) string {
	if a.live != b.live {
		return fmt.Sprintf("LiveRows %d, was %d", b.live, a.live)
	}
	for i := range a.entries {
		if fmt.Sprint(a.entries[i]) != fmt.Sprint(b.entries[i]) {
			return fmt.Sprintf("index %d holds %v, held %v", i, b.entries[i], a.entries[i])
		}
	}
	if len(a.heads) != len(b.heads) {
		return fmt.Sprintf("%d RIDs in use, were %d", len(b.heads), len(a.heads))
	}
	for rid, v := range a.heads {
		if b.heads[rid] != v {
			return fmt.Sprintf("RID %v starts at another version", rid)
		}
	}
	return ""
}

// TestAbortRestoresIndexesAndCounts: over a table with a unique and a
// non-unique secondary, a transaction of random inserts, key-changing
// updates, deletes and re-inserts is aborted after every prefix of its ops
// -- by Abort, or by the op that collides on a unique key -- and each time
// the indexes, the indirection array and LiveRows are what they were before
// it began. The keys an abort hides are derived from the versions' payloads.
func TestAbortRestoresIndexesAndCounts(t *testing.T) {
	emails := []string{"a", "b", "c", "d", "e", "f"}
	cities := []string{"x", "y"}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := testEngine(t, func(c *Config) { c.GCEveryNCommits = -1 })
		tbl := mustTable(t, e, accountsSchema())
		// Committed state: rows 1..4, of which 4 is then deleted (its RID
		// and index entries are there to be reused).
		tx := begin(t, e, 0)
		for id := int64(1); id <= 4; id++ {
			if _, err := tx.Insert(tbl, account(id, emails[id-1], cities[id%2])); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
		tx = begin(t, e, 0)
		rid4, _, err := tx.GetByKey(tbl, 0, I(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(tbl, rid4); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)

		type op func(tx *Txn) error
		randomOp := func() op {
			id := int64(1 + rng.Intn(6))
			row := account(id, emails[rng.Intn(len(emails))], cities[rng.Intn(len(cities))])
			switch rng.Intn(3) {
			case 0:
				return func(tx *Txn) error { _, err := tx.Insert(tbl, row); return err }
			case 1:
				return func(tx *Txn) error {
					rid, _, err := tx.GetByKey(tbl, 0, I(id))
					if err != nil {
						return err
					}
					return tx.Update(tbl, rid, row)
				}
			default:
				return func(tx *Txn) error {
					rid, _, err := tx.GetByKey(tbl, 0, I(id))
					if err != nil {
						return err
					}
					return tx.Delete(tbl, rid)
				}
			}
		}
		ops := make([]op, 8)
		for i := range ops {
			ops[i] = randomOp()
		}
		before := imageOf(t, tbl)
		for prefix := 1; prefix <= len(ops); prefix++ {
			tx := begin(t, e, 0)
			for _, o := range ops[:prefix] {
				err := o(tx)
				if errors.Is(err, ErrDuplicateKey) || errors.Is(err, ErrConflict) {
					break // the op aborted the transaction
				}
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if err := tx.Abort(); err != nil && !errors.Is(err, ErrTxnDone) {
				t.Fatal(err)
			}
			if d := before.diff(imageOf(t, tbl)); d != "" {
				t.Fatalf("seed %d, abort after %d ops: %s", seed, prefix, d)
			}
		}
		// And the table still takes writes on every key the aborts touched.
		tx = begin(t, e, 0)
		for id := int64(4); id <= 6; id++ {
			if _, err := tx.Insert(tbl, account(id, emails[id-1], "x")); err != nil {
				t.Fatalf("seed %d: insert %d after the aborts: %v", seed, id, err)
			}
		}
		commit(t, tx)
	}
}

// --- log buffer recycling ---------------------------------------------------

// TestRecycledLogBufferNotRewrittenBeforeDurable: a worker pipelines commits
// whose write sets (log buffer and entries) return to its slot when the WAL
// reports them durable, while the group flush is slowed down so buffers sit
// in the stream's queue, and a follower tails the same stream. Every record
// the follower and a recovery read must be the one its transaction wrote: a
// buffer reused before the log copied it out would ship another
// transaction's rows (and, under -race, is a reported race between the
// worker and the I/O goroutine).
func TestRecycledLogBufferNotRewrittenBeforeDurable(t *testing.T) {
	ch := chaos.New(7)
	svc := srss.New(srss.Config{Chaos: ch})
	cfg := Config{Name: "recycle-test", Service: svc, Workers: 2, LogStreams: 1, SegmentSize: 1 << 20}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := mustTable(t, e, usersSchema())
	ch.Arm(chaos.Rule{Site: wal.SiteFlushBefore, Action: chaos.Delay, Prob: 0.3, Delay: 200 * time.Microsecond})

	rep, _, err := OpenReplica(Config{Service: svc, Workers: 2, SegmentSize: 1 << 20}, e.ManifestID(), RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	stop := make(chan struct{})
	var tail sync.WaitGroup
	tail.Add(1)
	go func() {
		defer tail.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rep.CatchUp(); err != nil {
				t.Errorf("follower: %v", err)
				return
			}
		}
	}()

	const txns, perTxn = 300, 5
	name := func(txn, i int) string { return fmt.Sprintf("txn-%04d-row-%d-%s", txn, i, "pad-pad-pad-pad"[:txn%16]) }
	var durable sync.WaitGroup
	inFlight := make(chan struct{}, 2*maxFreeWriteSets) // commits a worker may have in the log's queue
	for txn := 0; txn < txns; txn++ {
		tx := begin(t, e, 0)
		for i := 0; i < perTxn; i++ {
			if _, err := tx.Insert(tbl, Row{I(int64(txn*perTxn + i)), S(name(txn, i)), I(int64(txn))}); err != nil {
				t.Fatal(err)
			}
		}
		inFlight <- struct{}{}
		durable.Add(1)
		if err := tx.CommitAsync(func(err error) {
			if err != nil {
				t.Errorf("commit: %v", err)
			}
			<-inFlight
			durable.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	durable.Wait()
	close(stop)
	tail.Wait()
	ch.Disarm(wal.SiteFlushBefore)
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}

	check := func(who string, eng *Engine) {
		t.Helper()
		rtbl, err := eng.Table("users")
		if err != nil {
			t.Fatal(err)
		}
		tx := begin(t, eng, 1)
		defer tx.Abort()
		var ids []int64
		if err := tx.ScanKey(rtbl, 0, nil, nil, func(_ RID, row Row) bool {
			id := row[0].Int()
			ids = append(ids, id)
			if txn, i := int(id)/perTxn, int(id)%perTxn; row[1].Str() != name(txn, i) || row[2].Int() != int64(txn) {
				t.Errorf("%s: row %d reads %v, want name %q of transaction %d", who, id, row, name(txn, i), txn)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(ids) != txns*perTxn || !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
			t.Errorf("%s: %d rows, want %d", who, len(ids), txns*perTxn)
		}
	}
	check("primary", e)
	check("follower", rep.Engine())
	e.Close()
	rec, _, err := RecoverByName(cfg, RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	check("recovered", rec)
}

// TestDuplicateKeyBesideRememberedNode: a worker slot's index hint remembers
// the nodes its inserts filled, and the uniqueness check of the next insert
// looks there first. Two sessions take turns on one slot, each inserting its
// own ascending range, so the hint holds both ranges' bottom nodes. A
// duplicate of a key in a remembered node -- a primary key and a unique
// secondary's, from either session -- still fails with ErrDuplicateKey, as
// does one far from them; a fresh key beside them goes in, and a deleted
// row's key is taken again.
func TestDuplicateKeyBesideRememberedNode(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, accountsSchema())
	const n = 300
	email := func(id int64) string { return fmt.Sprintf("e%08d", id) }
	insert := func(row Row) error {
		tx := begin(t, e, 0)
		if _, err := tx.Insert(tbl, row); err != nil {
			return err
		}
		return tx.Commit()
	}
	for i := int64(0); i < n; i++ {
		for _, id := range []int64{i, 1<<20 + i} { // session A's key, then B's
			if err := insert(account(id, email(id), "c")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, row := range []Row{
		account(n-1, "fresh-1", "c"),         // A's last primary key
		account(1<<20+n-2, "fresh-2", "c"),   // B's, one before its last
		account(5000, email(n-1), "c"),       // A's last email
		account(5001, email(1<<20+n-1), "c"), // B's
		account(0, "fresh-3", "c"),           // far from both
		account(5002, email(1<<20+10), "c"),  // far, in B's range
	} {
		if err := insert(row); !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("insert of %v: %v, want ErrDuplicateKey", row, err)
		}
	}
	if err := insert(account(n, email(n), "c")); err != nil {
		t.Fatalf("a fresh key beside A's last: %v", err)
	}
	tx := begin(t, e, 0)
	rid, _, err := tx.GetByKey(tbl, 0, I(n-2))
	if err == nil {
		err = tx.Delete(tbl, rid)
	}
	if err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	if err := insert(account(n-2, email(n-2), "d")); err != nil {
		t.Fatalf("re-insert of a deleted row's keys: %v", err)
	}
	tx = begin(t, e, 1)
	defer tx.Abort()
	for _, id := range []int64{0, n - 2, n - 1, n, 1<<20 + n - 1} {
		if _, row, err := tx.GetByKey(tbl, 1, S(email(id))); err != nil || row[0].Int() != id {
			t.Fatalf("email of %d: %v %v", id, row, err)
		}
	}
}

// scanSegment calls fn with each record of segment seg's whole transactions,
// in append order, with its permanent address and its transaction's CSN.
func scanSegment(m *wal.Manager, seg uint16, fn func(addr wal.Addr, rec wal.Record) bool) error {
	_, err := m.ScanSegmentFrom(seg, 0, func(txn []wal.Entry) bool {
		for _, r := range txn {
			if !fn(r.Addr, r.Record) {
				return false
			}
		}
		return true
	})
	return err
}
