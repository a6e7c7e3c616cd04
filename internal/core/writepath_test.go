package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
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

// TestFailedInsertReleasesItsVersion: an INSERT that fails on a unique
// secondary after its version and primary entry are in place must take both
// out again; the primary key it tried stays insertable.
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

	tx = begin(t, e, 1)
	if _, err := tx.Insert(tbl, account(2, "b", "x")); err != nil {
		t.Fatalf("insert of the primary key the failed insert tried: %v", err)
	}
	commit(t, tx)
	tx = begin(t, e, 0)
	defer tx.Abort()
	if _, row, err := tx.GetByKey(tbl, 1, S("a")); err != nil || row[0].Int() != 1 {
		t.Fatalf("email a resolves to %v (%v), want row 1", row, err)
	}
	if _, row, err := tx.GetByKey(tbl, 0, I(2)); err != nil || row[1].Str() != "b" {
		t.Fatalf("row 2 reads %v (%v)", row, err)
	}
}

// TestFailedUpdateReleasesItsVersion is the same for a key-changing UPDATE
// that collides on the unique secondary.
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

	tx = begin(t, e, 1)
	if err := tx.Update(tbl, rid, account(2, "c", "y")); err != nil {
		t.Fatalf("update of the row the failed update touched: %v", err)
	}
	commit(t, tx)
	tx = begin(t, e, 0)
	defer tx.Abort()
	if _, row, err := tx.GetByKey(tbl, 1, S("c")); err != nil || row[0].Int() != 2 {
		t.Fatalf("email c resolves to %v (%v), want row 2", row, err)
	}
	if _, _, err := tx.GetByKey(tbl, 1, S("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the old email still resolves: %v", err)
	}
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
// write: the payload, the version and the index leaf of an insert, the
// payload and the version of an update, and per transaction the Txn, a sync
// Commit's channel and callback. Bounds are the measured counts plus one.
func TestWritePathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := testEngine(t, func(c *Config) { c.Workers = 2; c.GCEveryNCommits = -1 })
	schema := usersSchema()
	schema.Indexes = schema.Indexes[:1] // the primary key alone: one leaf per row
	tbl := mustTable(t, e, schema)
	next := int64(0)
	row := Row{I(0), S("a-name-of-some-length"), I(0)}
	insertTxn := func(n int) func() {
		return func() {
			tx, err := e.Begin(0)
			if err != nil {
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
	// Txn, Commit's channel and closure; then payload, version and index
	// leaf per row, the index's inner nodes amortised.
	if avg := testing.AllocsPerRun(200, insertTxn(1)); avg > 7 {
		t.Errorf("a one-insert transaction allocates %.1f times, want <= 7", avg)
	}
	if avg := testing.AllocsPerRun(20, insertTxn(128)); avg > 3+128*3+8 {
		t.Errorf("a 128-insert transaction allocates %.1f times, want <= %d", avg, 3+128*3+8)
	}

	key := []Value{I(0)}
	set := []ColValue{{Col: 2, Val: I(0)}}
	where := []ColValue{{Col: 1, Val: row[1]}}
	n := int64(0)
	update := func() {
		tx, err := e.Begin(0)
		if err != nil {
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
	// Txn, channel, closure, payload, version.
	if avg := testing.AllocsPerRun(200, update); avg > 6 {
		t.Errorf("a point-update transaction allocates %.1f times, want <= 6", avg)
	}
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

// The log image of walImageRun. fnvImage is the hash the commit before the
// one-pass write path took and every commit up to the one before this kept:
// records closed by a 4-byte FNV-1a. crcImage is the same log with each
// record closed by CRC-32C instead (SRSS is memory-only: no image in the old
// format outlives its process, so nothing has to read both).
const (
	fnvImage = "3a707e07b0850d837b26bbba86796bd0b783367059ae3515bae3c7ad4cfb2ef1"
	crcImage = "47a1f4dccc06574360949482992868abedf459a90064435b74cffd9ed6253e13"
)

// TestWALImageUnchanged pins the log format byte for byte, whether the
// updates re-encode a Row or splice the stored payload. Replicas, recovery
// and log_bytes_per_user_byte depend on nothing here moving.
func TestWALImageUnchanged(t *testing.T) {
	for _, splice := range []bool{false, true} {
		if got := walImageHash(walSegments(t, walImageRun(t, splice))); got != crcImage {
			t.Errorf("splice=%v: WAL image hash %s, want %s", splice, got, crcImage)
		}
	}
}

// TestWALImageOnlyChecksumMoved shows that the re-freeze of crcImage moved
// nothing but the checksum: put FNV-1a back into the last 4 bytes of every
// record of today's log and it is the parent's image again -- every other
// byte, every record boundary and the log's length are where they were.
func TestWALImageOnlyChecksumMoved(t *testing.T) {
	fnv1a := func(h uint32, b []byte) uint32 {
		for _, c := range b {
			h = (h ^ uint32(c)) * 16777619
		}
		return h
	}
	segs := walSegments(t, walImageRun(t, false))
	records := 0
	for _, s := range segs {
		b := s.b
		for pos := 1; pos < len(b); { // byte 0 is the segment header
			rec, n, err := wal.DecodeRecord(b[pos:])
			if err != nil {
				t.Fatalf("record at %d: %v", pos, err)
			}
			body := b[pos+9 : pos+n-4] // after op and CSN, before the checksum
			binary.LittleEndian.PutUint32(b[pos+n-4:], fnv1a(uint32(rec.Op)+1, body))
			pos += n
			records++
		}
	}
	if records != 4*8+3+2+1 {
		t.Errorf("walked %d records, want 38", records)
	}
	if got := walImageHash(segs); got != fnvImage {
		t.Errorf("with FNV-1a checksums the image hashes to %s, want the parent's %s", got, fnvImage)
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
