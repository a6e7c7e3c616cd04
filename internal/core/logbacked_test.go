package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hiengine/internal/chaos"
	"hiengine/internal/raceflag"
	"hiengine/internal/srss"
	"hiengine/internal/wal"
)

// Once a version's log record is durable its payload is the record's payload
// where it lies in the log, not a copy beside it. These tests hold the swing
// (writeSet.onLogDone) and the compaction rewrite to that.

// logBacked reports whether v's resident payload is its log record's own
// bytes, failing the test if it is resident and differs from them.
func logBacked(t *testing.T, e *Engine, v *Version) bool {
	t.Helper()
	d, ok := v.resident()
	if !ok {
		return false
	}
	rec, err := e.log.ReadRecord(v.Addr())
	if err != nil {
		t.Fatalf("record at %v: %v", v.Addr(), err)
	}
	if !bytes.Equal(rec.Payload, d) {
		t.Fatalf("payload of the version at %v is not its record's", v.Addr())
	}
	// (ReadRecord's own payload is a copy whenever any part of the record
	// crosses a chunk, so it is not what to compare with.)
	w := e.log.Appended(payloadAddr(e, v.Addr(), rec))
	return len(w) >= len(d) && &w[0] == &d[0]
}

// payloadAddr is where the payload of rec, the record at addr, lies.
func payloadAddr(e *Engine, addr wal.Addr, rec wal.Record) wal.Addr {
	return addr.Add(uint32(wal.HeaderLen(e.log.Appended(addr)[0], rec)))
}

func privateBytes(e *Engine) int64 { return e.Obs().Gauge("core.payload_private_bytes").Load() }
func swings(e *Engine) int64       { return e.Obs().Counter("core.payload_swings").Load() }

// TestDurablePayloadIsTheLog: when Commit returns, the visible version of
// every row it wrote reads the log's memory -- after an insert, an Update, an
// UpdateColumns, a 128-row write set and a 2PC prepare -- and nothing is left
// on the private-payload ledger.
func TestDurablePayloadIsTheLog(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.GCEveryNCommits = -1 })
	tbl := mustTable(t, e, usersSchema())
	check := func(what string, rids ...RID) {
		t.Helper()
		for _, rid := range rids {
			v := tbl.rows.Get(rid)
			if v.Addr() == wal.InvalidAddr || v.private() || !logBacked(t, e, v) {
				t.Fatalf("after %s: rid %v (addr %v, private %v) does not read the log's bytes", what, rid, v.Addr(), v.private())
			}
			// Which is where a cold read of the same address looks.
			if rec, err := e.log.ReadRecord(v.Addr()); err != nil || &rec.Payload[0] != v.data.Load() {
				t.Fatalf("after %s: rid %v: ReadRecord(%v) returns other memory than the version holds (%v)", what, rid, v.Addr(), err)
			}
		}
		if n := privateBytes(e); n != 0 {
			t.Fatalf("after %s: %d bytes still held in private payloads", what, n)
		}
	}

	rid := insertUser(t, e, tbl, 0, 1, "inserted", 10)
	check("insert", rid)

	tx := begin(t, e, 0)
	if err := tx.Update(tbl, rid, Row{I(1), S("updated"), I(20)}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	check("Update", rid)

	tx = begin(t, e, 0)
	if ok, err := tx.UpdateColumns(tbl, 0, []Value{I(1)}, nil, []ColValue{{Col: 2, Val: I(30)}}); err != nil || !ok {
		t.Fatal(ok, err)
	}
	commit(t, tx)
	check("UpdateColumns", rid)

	tx = begin(t, e, 1)
	var rids []RID
	for i := int64(100); i < 228; i++ {
		r, err := tx.Insert(tbl, Row{I(i), S(fmt.Sprintf("bulk-%d", i)), I(i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	// A delete in the same write set has no payload to swing.
	if err := tx.Delete(tbl, rids[0]); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	check("a 128-row write set", rids[1:]...)

	// A 2PC participant's records land inside its prepare record: its
	// versions read them there from the vote on, whatever the decision.
	tx = begin(t, e, 2)
	prepared, err := tx.Insert(tbl, Row{I(900), S("prepared"), I(9)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Prepare("g1"); err != nil {
		t.Fatal(err)
	}
	check("Prepare", prepared)
	decided := make(chan error, 1)
	if err := e.Resolve("g1", true, func(_ uint64, err error) { decided <- err }); err != nil || <-decided != nil {
		t.Fatal("resolve:", err)
	}
	check("the commit decision", prepared)
	if got := swings(e); got != 3+128+1 {
		t.Errorf("core.payload_swings = %d, want %d", got, 3+128+1)
	}

	// The rows read as written, and the superseded versions were swung too.
	tx = begin(t, e, 0)
	defer tx.Abort()
	if row, err := tx.Get(tbl, rid); err != nil || row[1].Str() != "updated" || row[2].Int() != 30 {
		t.Fatalf("row 1 reads %v (%v)", row, err)
	}
	if row, err := tx.Get(tbl, prepared); err != nil || row[1].Str() != "prepared" {
		t.Fatalf("row 900 reads %v (%v)", row, err)
	}
	for v := tbl.rows.Get(rid); v != nil; v = v.next.Load() {
		if !logBacked(t, e, v) {
			t.Errorf("version at %v of row 1 is still a private copy", v.Addr())
		}
	}
}

// swingRow is a row whose columns can be checked against one another: the
// writer is in the id and the name, the version in the balance.
const swingModulus = 1_000_003

func swingRow(id, ver int64) Row {
	return Row{I(id), S(fmt.Sprintf("w%d", id/1000)), I(id + ver*swingModulus)}
}

func checkSwingRow(p []byte, maxVer int64) error {
	row, err := DecodeRow(p)
	if err != nil {
		return err
	}
	id, bal := row[0].Int(), row[2].Int()
	if ver := (bal - id) / swingModulus; row[1].Str() != fmt.Sprintf("w%d", id/1000) || (bal-id)%swingModulus != 0 || ver < 0 || ver > maxVer {
		return fmt.Errorf("row %v is not one a writer wrote", row)
	}
	return nil
}

// TestSwingUnderConcurrentReaders: two writers commit inserts and updates --
// each commit swinging its versions onto the log from the I/O goroutine --
// while two readers point-read and prefix-scan the same rows. Every read is a
// row some writer wrote, whole; at the end every row reads its last version.
func TestSwingUnderConcurrentReaders(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.Workers = 4; c.LogStreams = 2; c.GCEveryNCommits = 4 })
	tbl := mustTable(t, e, usersSchema())
	const writers, rowsPer, rounds = 2, 48, 30
	var rids [writers][rowsPer]atomic.Uint64 // RID+1 once the row's insert is durable
	var wg, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := func(k int) int64 { return int64(w*1000 + k) }
			for k := 0; k < rowsPer; k += 8 {
				tx, err := e.Begin(w)
				if err != nil {
					t.Error(err)
					return
				}
				var got [8]RID
				for i := range got {
					if got[i], err = tx.Insert(tbl, swingRow(id(k+i), 0)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				for i, rid := range got {
					rids[w][k+i].Store(uint64(rid) + 1)
				}
			}
			for ver := int64(1); ver <= rounds; ver++ {
				for k := 0; k < rowsPer; k += 4 {
					tx, err := e.Begin(w)
					if err != nil {
						t.Error(err)
						return
					}
					for i := k; i < k+4; i++ {
						if i%2 == 0 {
							err = tx.Update(tbl, RID(rids[w][i].Load()-1), swingRow(id(i), ver))
						} else {
							_, err = tx.UpdateColumns(tbl, 0, []Value{I(id(i))}, nil, []ColValue{{Col: 2, Val: I(id(i) + ver*swingModulus)}})
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			check := func(p []byte) error { return checkSwingRow(p, rounds) }
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// A row known before the snapshot is taken is in the snapshot.
				w := rng.Intn(writers)
				rid := rids[w][rng.Intn(rowsPer)].Load()
				tx, err := e.Begin(writers + r)
				if err != nil {
					t.Error(err)
					return
				}
				if rid != 0 {
					if err := tx.getRaw(tbl, RID(rid-1), check); err != nil {
						t.Errorf("GetRaw: %v", err)
					}
				}
				if i%8 == 0 {
					n := 0
					err := tx.ScanPrefixRaw(tbl, 1, []Value{S(fmt.Sprintf("w%d", w))}, func(_ RID, p []byte) bool {
						n++
						if err := check(p); err != nil {
							t.Errorf("ScanPrefixRaw: %v", err)
						}
						return true
					})
					if err != nil || n > rowsPer {
						t.Errorf("ScanPrefixRaw saw %d rows of writer %d (%v), want at most %d", n, w, err, rowsPer)
					}
				}
				tx.Abort()
			}
		}(r)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}

	tx := begin(t, e, 0)
	defer tx.Abort()
	for w := 0; w < writers; w++ {
		for k := 0; k < rowsPer; k++ {
			rid := RID(rids[w][k].Load() - 1)
			want := swingRow(int64(w*1000+k), rounds)
			if row, err := tx.Get(tbl, rid); err != nil || fmt.Sprint(row) != fmt.Sprint(want) {
				t.Fatalf("row %d of writer %d reads %v (%v), want %v", k, w, row, err, want)
			}
			if v := tbl.rows.Get(rid); !logBacked(t, e, v) {
				t.Fatalf("row %d of writer %d: the durable head at %v is a private copy", k, w, v.Addr())
			}
		}
	}
	e.RunGC()
	if n := privateBytes(e); n != 0 {
		t.Errorf("%d bytes on the private-payload ledger with every commit durable", n)
	}
}

// overlap reports whether a and b share memory.
func overlap(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for i := range a {
		if &a[i] == &b[0] {
			return true
		}
	}
	for i := range b {
		if &b[i] == &a[0] {
			return true
		}
	}
	return false
}

// TestStraddlingRecordStaysPrivate: over storage in 64-byte chunks most
// records cross a chunk boundary, and no one slice of the log holds such a
// payload. Those versions keep private payloads -- the ledger counts exactly
// them -- the rest are swung, and every row reads the same live and
// recovered. A straddler's private payload is its own: left
// in the transaction's log buffer it would keep the whole buffer alive, for
// as long as the row lives, after every sibling has swung off it.
func TestStraddlingRecordStaysPrivate(t *testing.T) {
	const chunk = 64
	svc := srss.New(srss.Config{ChunkSize: chunk})
	e := testEngine(t, func(c *Config) { c.Service = svc; c.GCEveryNCommits = -1 })
	tbl := mustTable(t, e, usersSchema())
	const rows = 600
	// Where each transaction's rows lay before it was durable: its buffer.
	buffers := map[RID][][]byte{}
	for i := int64(0); i < rows; i += 6 {
		tx := begin(t, e, int(i/6%4))
		var rids []RID
		var buffer [][]byte
		for j := i; j < i+6; j++ {
			rid, err := tx.Insert(tbl, Row{I(j), S(fmt.Sprintf("user-%d", j%89)), I(j)})
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
			d, _ := tbl.rows.Get(rid).resident()
			buffer = append(buffer, d)
		}
		for _, rid := range rids {
			buffers[rid] = buffer
		}
		commit(t, tx)
	}
	var private, swung int64
	tbl.rows.Range(func(rid RID, v *Version) bool {
		d, _ := v.resident()
		rec, err := e.log.ReadRecord(v.Addr())
		if err != nil {
			t.Fatal(err)
		}
		from := int64(payloadAddr(e, v.Addr(), rec).Offset())
		straddles := from/chunk != (from+int64(len(d))-1)/chunk
		switch backed := logBacked(t, e, v); {
		case straddles && (backed || !v.private()):
			t.Fatalf("rid %v: payload [%d,+%d) straddles a chunk and is not private", rid, from, len(d))
		case !straddles && (!backed || v.private()):
			t.Fatalf("rid %v: payload [%d,+%d) lies in one chunk and was not swung", rid, from, len(d))
		case straddles:
			private += int64(len(d))
			for _, sibling := range buffers[rid] {
				if overlap(d, sibling) {
					t.Fatalf("rid %v: a straddler's payload is still in its transaction's log buffer", rid)
				}
			}
		default:
			swung++
		}
		return true
	})
	if private == 0 || swung == 0 {
		t.Fatalf("%d private bytes, %d swung payloads: the test wants some of each", private, swung)
	}
	if got := privateBytes(e); got != private {
		t.Errorf("core.payload_private_bytes = %d, want the straddlers' %d", got, private)
	}
	if got := swings(e); got != swung {
		t.Errorf("core.payload_swings = %d, want %d", got, swung)
	}
	want := snapshotTable(t, e, "users")
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	if got := snapshotTable(t, e2, "users"); len(got) != rows || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %d rows, want the %d read before the crash", len(got), rows)
	}
}

// TestFailedAppendKeepsPrivatePayload: a commit whose append fails -- before
// the log took it, or after the bytes are down but before anyone may rely on
// them -- leaves its versions as they were: private payload, no address,
// still on the ledger, and the engine fail-stopped as before. And the swing
// is not a storage read: a commit does not consume a fault armed on srss.read.
func TestFailedAppendKeepsPrivatePayload(t *testing.T) {
	open := func(seed uint64) (*chaos.Engine, *Engine, *Table) {
		ch := chaos.New(seed)
		e, err := Open(Config{Service: srss.New(srss.Config{Chaos: ch}), Workers: 2, LogStreams: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		tbl := mustTable(t, e, usersSchema())
		insertUser(t, e, tbl, 0, 1, "durable", 1)
		return ch, e, tbl
	}
	for i, site := range []string{wal.SiteFlushBefore, wal.SiteFlushAfter, srss.SiteAppendAfter} {
		ch, e, tbl := open(uint64(i + 1))
		tx := begin(t, e, 0)
		rid, err := tx.Insert(tbl, Row{I(2), S("never-acked"), I(2)})
		if err != nil {
			t.Fatal(err)
		}
		v := tbl.rows.Get(rid)
		payload, _ := v.resident()
		ch.Arm(chaos.Rule{Site: site, Action: chaos.Crash, OnHit: ch.Hits(site) + 1})
		if err := tx.Commit(); !errors.Is(err, chaos.ErrCrashed) {
			t.Fatalf("%s: commit returned %v, want the crash", site, err)
		}
		if !e.DurabilityLost() {
			t.Errorf("%s: the failed append did not latch fail-stop", site)
		}
		if v.data.Load() != &payload[0] || !v.private() || v.Addr() != wal.InvalidAddr {
			t.Errorf("%s: the version of the failed commit was touched (addr %v, private %v)", site, v.Addr(), v.private())
		}
		if got := privateBytes(e); got != int64(len(payload)) {
			t.Errorf("%s: core.payload_private_bytes = %d, want the unacked row's %d", site, got, len(payload))
		}
	}

	ch, e, tbl := open(9)
	hits, reads := ch.Hits(srss.SiteRead), e.svc.Stats().Reads.Load()
	ch.Arm(chaos.Rule{Site: srss.SiteRead, Action: chaos.Fault, OnHit: hits + 1})
	rid := insertUser(t, e, tbl, 0, 2, "acked", 2)
	if ch.Hits(srss.SiteRead) != hits || ch.Fired(srss.SiteRead) != 0 || e.svc.Stats().Reads.Load() != reads {
		t.Fatalf("a commit drew %d srss.read decisions and counted %d storage reads",
			ch.Hits(srss.SiteRead)-hits, e.svc.Stats().Reads.Load()-reads)
	}
	if v := tbl.rows.Get(rid); v.private() || privateBytes(e) != 0 {
		t.Fatal("the commit's payload was not swung")
	}
	// The fault is still armed, for the first real read.
	if _, err := e.log.ReadRecord(tbl.rows.Get(rid).Addr()); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("first storage read after the commit: %v, want the armed fault", err)
	}
}

// heapAfterGC is the live heap once garbage is gone.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLiveEngineIsAsLeanAsRecovered: an engine that wrote its rows holds
// what one that recovered them holds -- a version pointing into the log, an
// index entry -- and no second copy of the row. Both are measured over
// the same storage, which holds the log either way.
func TestLiveEngineIsAsLeanAsRecovered(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const rows, perTxn = 128_000, 128
	svc := srss.New(srss.Config{})
	cfg := Config{Name: "lean-test", Service: svc, Workers: 2, SegmentSize: 8 << 20}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := usersSchema()
	schema.Indexes = schema.Indexes[:1]
	tbl := mustTable(t, e, schema)
	for i := int64(0); i < rows; i += perTxn {
		tx := begin(t, e, 0)
		for j := i; j < i+perTxn; j++ {
			// ~128 bytes of payload, the benchmark's row.
			if _, err := tx.Insert(tbl, Row{I(j), S(fmt.Sprintf("%0112d", j)), I(j)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx) // returns at durability
	}
	if n := privateBytes(e); n > rows*128/500 {
		t.Errorf("%d bytes in private payloads after a closed-loop load: only a record in ~2,000 straddles a chunk", n)
	}
	live := heapAfterGC()
	e.Close()

	rec, _, err := RecoverByName(cfg, RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	recovered := heapAfterGC()
	if rtbl, err := rec.Table("users"); err != nil || rtbl.LiveRows() != rows {
		t.Fatalf("recovered table: %v, want %d rows", err, rows)
	}
	perRow := float64(live-recovered) / rows
	t.Logf("live %.1f MB, recovered %.1f MB: %+.1f B/row", float64(live)/(1<<20), float64(recovered)/(1<<20), perRow)
	if perRow > 40 {
		t.Errorf("the live engine holds %.1f B/row more than the recovered one, want <= 40 (a second copy of the row is ~160)", perRow)
	}
	runtime.KeepAlive(svc)
}

// TestCompactFullReleasesDroppedSegments: compaction moves a version's
// payload along with its address, so that no live version reads memory of a
// segment compaction dropped (which would keep every chunk it touches alive
// after DropSegment), and the rows read as before.
func TestCompactFullReleasesDroppedSegments(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.Workers = 4; c.LogStreams = 2; c.SegmentSize = 1 << 16; c.GCEveryNCommits = -1 })
	tbl := mustTable(t, e, usersSchema())
	const rows = 1500
	for i := int64(0); i < rows; i++ {
		insertUser(t, e, tbl, int(i%4), i, fmt.Sprintf("user-%d", i%97), i)
	}
	for i := int64(0); i < rows; i += 3 { // superseded versions: dead weight in the old segments
		tx := begin(t, e, 0)
		if ok, err := tx.UpdateColumns(tbl, 0, []Value{I(i)}, nil, []ColValue{{Col: 2, Val: I(-i)}}); err != nil || !ok {
			t.Fatal(ok, err)
		}
		commit(t, tx)
	}
	e.RunGC()
	// One version in ten is evicted: compaction reads it back from the old
	// segment, which must not leave it cached from there either.
	tbl.rows.Range(func(rid RID, v *Version) bool {
		if rid%10 == 0 {
			v.Evict()
		}
		return true
	})
	want := snapshotTable(t, e, "users")

	// Every byte of every segment there is now, by address.
	old := map[uint16]map[*byte]bool{}
	for _, seg := range e.log.Segments() {
		id, _ := e.log.Directory().Lookup(seg)
		p, err := e.svc.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		old[seg] = map[*byte]bool{}
		for off := int64(0); off < p.Size(); {
			w := p.Appended(off)
			for i := range w {
				old[seg][&w[i]] = true
			}
			off += int64(len(w))
		}
	}
	cs, err := e.CompactFull()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsDropped == 0 || cs.RecordsRewritten < rows {
		t.Fatalf("compaction did nothing to look at: %+v", cs)
	}
	for _, seg := range e.log.Segments() {
		delete(old, seg) // not dropped
	}
	if len(old) != cs.SegmentsDropped {
		t.Fatalf("%d segments gone from the directory, %d reported dropped", len(old), cs.SegmentsDropped)
	}
	tbl.rows.Range(func(rid RID, v *Version) bool {
		for ; v != nil; v = v.next.Load() {
			if _, dropped := old[v.Addr().Segment()]; dropped {
				t.Fatalf("rid %v: a live version's address %v is in a dropped segment", rid, v.Addr())
			}
			d := v.data.Load()
			if d == nil {
				continue
			}
			for seg, mem := range old {
				if mem[d] {
					t.Fatalf("rid %v: the version at %v still reads the memory of dropped segment %d", rid, v.Addr(), seg)
				}
			}
			if !v.private() && !logBacked(t, e, v) {
				t.Fatalf("rid %v: payload is neither private nor its record's at %v", rid, v.Addr())
			}
		}
		return true
	})
	if got := snapshotTable(t, e, "users"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("rows read differently after compaction")
	}
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	if got := snapshotTable(t, e2, "users"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("rows read differently after compaction and recovery")
	}
}
