package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

func testManager(t *testing.T, cfg Config) (*srss.Service, *Manager) {
	t.Helper()
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20})
	cfg.Service = svc
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return svc, m
}

func TestAddrPacking(t *testing.T) {
	a := MakeAddr(0x1234, 0xdeadbeef)
	if a.Segment() != 0x1234 || a.Offset() != 0xdeadbeef {
		t.Fatalf("pack/unpack: %v", a)
	}
	if a.Add(0x11).Offset() != 0xdeadbf00 {
		t.Fatalf("Add: %v", a.Add(0x11))
	}
}

func TestRecordRoundTrip(t *testing.T) {
	buf, off := AppendRecord(nil, OpInsert, 7, 42, []byte("payload"))
	buf = StampTxn(buf, off, 99)
	rec, n, err := DecodeRecord(buf[off:])
	if err != nil {
		t.Fatal(err)
	}
	// The CSN trails the record: one byte for 99, and not the record's.
	if n != len(buf)-1 || buf[n] != 99 {
		t.Fatalf("decoded length %d of %d, trailer %x", n, len(buf), buf[n:])
	}
	if rec.Op != OpInsert || rec.CSN != 0 || rec.Table != 7 || rec.RID != 42 || string(rec.Payload) != "payload" {
		t.Fatalf("round trip: %+v", rec)
	}
	// The frame is the record's own length byte and payload.
	if f := rec.Frame(); len(f) != 8 || f[0] != 7 || &f[1] != &rec.Payload[0] {
		t.Fatalf("frame %q of payload %q", f, rec.Payload)
	}
	if f, n := Framed(&rec.Frame()[0]); n != 7 || &f[1] != &rec.Payload[0] {
		t.Fatalf("Framed: %q, %d", f, n)
	}
	if f := (Record{}).Frame(); !bytes.Equal(f, []byte{0}) {
		t.Fatalf("an empty payload's frame is %q", f)
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	if _, _, err := DecodeRecord([]byte{'I', 0}); err == nil {
		t.Fatal("short record accepted")
	}
	buf, off := AppendRecord(nil, OpUpdate, 1, 2, []byte("xyz"))
	buf = StampTxn(buf, off, 1)
	buf[0] = 'Z'
	if _, _, err := DecodeRecord(buf); err == nil {
		t.Fatal("bad op tag accepted")
	}
	buf[0] = 'U'
	if _, _, err := DecodeRecord(buf[:len(buf)-2]); err == nil { // the CSN and a checksum byte
		t.Fatal("truncated record accepted")
	}
	// A payload length in two bytes where one does, under a valid checksum.
	body := []byte{1, 2, 0x83, 0x00, 'x', 'y', 'z'}
	long := binary.LittleEndian.AppendUint32(append(make([]byte, 1), body...), checksum(OpUpdate, body))
	long[0] = OpUpdate
	if _, _, err := DecodeRecord(long); err == nil {
		t.Fatal("a payload length not in its shortest form accepted")
	}
}

// TestMultipleRecordsOneBuffer: a transaction's records are laid out alike
// and decode on their own with CSN 0, the stamp marks the last record, and
// only it, as the end, and the CSN follows it as a uvarint -- in the room
// ReserveRecord kept, so stamping never moves the buffer.
func TestMultipleRecordsOneBuffer(t *testing.T) {
	var buf []byte
	var offs []int
	for i := 0; i < 5; i++ {
		var off int
		buf, off = AppendRecord(buf, OpInsert, 1, uint64(i), []byte(fmt.Sprintf("v%d", i)))
		offs = append(offs, off)
	}
	unstamped := len(buf)
	stamped := StampTxn(buf, offs[4], 300)
	if &stamped[0] != &buf[0] || len(stamped) != unstamped+2 {
		t.Fatalf("stamping moved the buffer, or wrote %d bytes, not 2", len(stamped)-unstamped)
	}
	if csn, k := binary.Uvarint(stamped[unstamped:]); csn != 300 || k != 2 {
		t.Fatalf("trailer %x", stamped[unstamped:])
	}
	buf = stamped[:unstamped]
	pos := 0
	for i := 0; pos < len(buf); i++ {
		rec, mark, n, err := decode(buf[pos:])
		if err != nil {
			t.Fatal(err)
		}
		if pos != offs[i] {
			t.Fatalf("record %d at %d, expected %d", i, pos, offs[i])
		}
		wantMark, wantLen := byte(0), 1+1+1+1+2+4
		if i > 0 {
			wantMark = markCont
		}
		if i == 4 {
			wantMark |= markEnd
		}
		if rec.Op != OpInsert || rec.RID != uint64(i) || rec.CSN != 0 || mark != wantMark || n != wantLen {
			t.Fatalf("record %d: %+v, marks %#x, %d bytes; want CSN 0, marks %#x, %d bytes", i, rec, mark, n, wantMark, wantLen)
		}
		if h := HeaderLen(rec); &buf[pos+h] != &rec.Payload[0] {
			t.Fatalf("record %d: HeaderLen %d, its payload begins at %d", i, h, cap(buf[pos:])-cap(rec.Payload))
		}
		pos += n
	}
}

func TestAppendSyncAndReadRecord(t *testing.T) {
	_, m := testManager(t, Config{Streams: 2, SegmentSize: 1 << 16})
	record, off := AppendRecord(nil, OpInsert, 3, 11, []byte("hello"))
	buf := StampTxn(record, off, 5)
	base, err := m.AppendSync(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.ReadRecord(base)
	if err != nil {
		t.Fatal(err)
	}
	// A point read does not know its transaction's CSN: only a scan reads
	// the trailer.
	if rec.RID != 11 || string(rec.Payload) != "hello" || rec.CSN != 0 {
		t.Fatalf("read back: %+v", rec)
	}
	// The appender's look at its record: the same memory ReadRecord decoded
	// in, found by the address done reported, without a storage read.
	reads := m.WindowReads()
	a := m.Appended(base)
	at := FrameOffset(record, len(rec.Payload))
	if !bytes.HasPrefix(a, buf) || &a[at] != &rec.Frame()[0] || m.WindowReads() != reads {
		t.Fatalf("Appended(%v): %d bytes, %d storage reads", base, len(a), m.WindowReads()-reads)
	}
	if a := m.Appended(base.Add(uint32(len(buf)))); a != nil {
		t.Fatalf("Appended past the log's end: %d bytes", len(a))
	}
}

// TestLoneRequestIsAppendedFromItsOwnBuffer: a batch of one is no group, and
// takes no trip through the stream's group buffer.
func TestLoneRequestIsAppendedFromItsOwnBuffer(t *testing.T) {
	_, m := testManager(t, Config{Streams: 1, SegmentSize: 1 << 12})
	for i := 0; i < 200; i++ { // enough to rotate a few times
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), bytes.Repeat([]byte{byte(i)}, 40))
		buf = StampTxn(buf, off, uint64(i+1))
		base, err := m.AppendSync(0, buf)
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := m.ReadRecord(base); err != nil || rec.RID != uint64(i) || !bytes.Equal(rec.Payload, bytes.Repeat([]byte{byte(i)}, 40)) {
			t.Fatalf("record %d reads back %+v (%v)", i, rec, err)
		}
	}
	if appends, txns, _ := m.Stream(0).Stats(); appends != 200 || txns != 200 {
		t.Fatalf("%d appends of %d requests, want 200 of 200", appends, txns)
	}
	if c := cap(m.Stream(0).concat); c != 0 {
		t.Errorf("lone requests were copied into a %d-byte group buffer", c)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	_, m := testManager(t, Config{Streams: 1, SegmentSize: 1 << 18, BatchMax: 64})
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), bytes.Repeat([]byte{byte(i)}, 20))
		buf = StampTxn(buf, off, uint64(i+1))
		wg.Add(1)
		m.Append(0, buf, func(base Addr, err error) {
			if err != nil {
				t.Errorf("commit: %v", err)
			}
			wg.Done()
		})
	}
	wg.Wait()
	appends, txns, _ := m.Stream(0).Stats()
	if txns != n {
		t.Fatalf("txns = %d, want %d", txns, n)
	}
	if appends >= txns {
		t.Fatalf("no batching: %d appends for %d txns", appends, txns)
	}
}

// TestStatsCountABatchBeforeItsCallbacks: whoever waited for a commit and
// then reads Stats (this package's tests, the benchmark's counter diffs) must
// find that commit's batch counted -- so it is counted before done runs.
func TestStatsCountABatchBeforeItsCallbacks(t *testing.T) {
	_, m := testManager(t, Config{Streams: 1})
	buf, off := AppendRecord(nil, OpInsert, 1, 1, []byte("row"))
	buf = StampTxn(buf, off, 1)
	type stats struct{ appends, txns, bytes int64 }
	seen := make(chan stats, 1)
	m.Append(0, buf, func(Addr, error) {
		var s stats
		s.appends, s.txns, s.bytes = m.Stream(0).Stats()
		seen <- s
	})
	if got, want := <-seen, (stats{1, 1, int64(len(buf))}); got != want {
		t.Fatalf("Stats inside the commit callback = %+v, want %+v", got, want)
	}
}

func TestSegmentRotation(t *testing.T) {
	_, m := testManager(t, Config{Streams: 1, SegmentSize: 512})
	var addrs []Addr
	for i := 0; i < 50; i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), bytes.Repeat([]byte("x"), 40))
		buf = StampTxn(buf, off, uint64(i+1))
		a, err := m.AppendSync(0, buf)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	segs := map[uint16]bool{}
	for _, a := range addrs {
		segs[a.Segment()] = true
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation across segments, got %d segment(s)", len(segs))
	}
	// All records still readable across segments.
	for i, a := range addrs {
		rec, err := m.ReadRecord(a)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.RID != uint64(i) {
			t.Fatalf("record %d: rid %d", i, rec.RID)
		}
	}
}

func TestTooLargeTxn(t *testing.T) {
	_, m := testManager(t, Config{Streams: 1, SegmentSize: 128})
	if _, err := m.AppendSync(0, make([]byte, 256)); err == nil {
		t.Fatal("oversize txn accepted")
	}
	// Manager still usable.
	buf, off := AppendRecord(nil, OpInsert, 1, 1, []byte("ok"))
	buf = StampTxn(buf, off, 1)
	if _, err := m.AppendSync(0, buf); err != nil {
		t.Fatal(err)
	}
}

func TestScanSegmentSequential(t *testing.T) {
	_, m := testManager(t, Config{Streams: 1, SegmentSize: 1 << 18})
	const n = 100
	for i := 0; i < n; i++ {
		buf, off := AppendRecord(nil, OpUpdate, 2, uint64(i), []byte(fmt.Sprintf("val-%d", i)))
		buf = StampTxn(buf, off, uint64(i+1))
		if _, err := m.AppendSync(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	for _, seg := range m.Segments() {
		err := scanSegment(m, seg, func(addr Addr, rec Record) bool {
			if addr.Segment() != seg {
				t.Fatalf("addr segment mismatch")
			}
			got = append(got, rec.RID)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != n {
		t.Fatalf("scanned %d records, want %d", len(got), n)
	}
	for i, rid := range got {
		if rid != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, rid)
		}
	}
}

func TestConcurrentStreams(t *testing.T) {
	_, m := testManager(t, Config{Streams: 4, SegmentSize: 1 << 16})
	const workers, per = 4, 200
	var wg sync.WaitGroup
	addrs := make([][]Addr, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				buf, off := AppendRecord(nil, OpInsert, uint32(w), uint64(i), []byte("d"))
				buf = StampTxn(buf, off, uint64(w*per+i+1))
				a, err := m.AppendSync(w, buf)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				addrs[w] = append(addrs[w], a)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i, a := range addrs[w] {
			rec, err := m.ReadRecord(a)
			if err != nil || rec.Table != uint32(w) || rec.RID != uint64(i) {
				t.Fatalf("w=%d i=%d: %+v err=%v", w, i, rec, err)
			}
		}
	}
}

func TestReopenRecoversDirectory(t *testing.T) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20})
	m, err := Open(Config{Service: svc, Streams: 2, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []Addr
	for i := 0; i < 40; i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), bytes.Repeat([]byte("y"), 60))
		buf = StampTxn(buf, off, uint64(i+1))
		a, err := m.AppendSync(i%2, buf)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	metaID := m.Directory().MetaID()
	oldSegs := len(m.Segments())
	m.Close()

	m2, err := Reopen(Config{Service: svc, Streams: 2, SegmentSize: 4096}, metaID)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// All old records readable.
	for i, a := range addrs {
		rec, err := m2.ReadRecord(a)
		if err != nil || rec.RID != uint64(i) {
			t.Fatalf("recovered record %d: %+v err=%v", i, rec, err)
		}
	}
	// New segments do not collide with old ones.
	if got := len(m2.Segments()); got <= oldSegs {
		t.Fatalf("reopen created no fresh segments: %d <= %d", got, oldSegs)
	}
	buf, off := AppendRecord(nil, OpInsert, 1, 999, []byte("post"))
	buf = StampTxn(buf, off, 1000)
	a, err := m2.AppendSync(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := m2.ReadRecord(a); err != nil || rec.RID != 999 {
		t.Fatalf("post-reopen append: %+v err=%v", rec, err)
	}
}

func TestSealRetryOnNodeFailureThenHeal(t *testing.T) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, ComputeNodes: 4})
	m, err := Open(Config{Service: svc, Streams: 1, SegmentSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	buf, off := AppendRecord(nil, OpInsert, 1, 1, []byte("pre"))
	buf = StampTxn(buf, off, 1)
	if _, err := m.AppendSync(0, buf); err != nil {
		t.Fatal(err)
	}
	// Fail one node: the open segment's plog seals on next write; the
	// stream must rotate to a plog on the remaining healthy nodes.
	svc.ComputeNode(0).Fail()
	buf2, off2 := AppendRecord(nil, OpInsert, 1, 2, []byte("during"))
	buf2 = StampTxn(buf2, off2, 2)
	a, err := m.AppendSync(0, buf2)
	if err != nil {
		t.Fatalf("append during failure: %v", err)
	}
	if rec, err := m.ReadRecord(a); err != nil || rec.RID != 2 {
		t.Fatalf("record after seal-retry: %+v err=%v", rec, err)
	}
}

func TestLogIsRedoOnly(t *testing.T) {
	// The log must contain exactly the records handed to Append -- loser
	// transactions are simply never appended (their buffers are dropped
	// by the engine). Verify the scan reproduces the committed set.
	_, m := testManager(t, Config{Streams: 2, SegmentSize: 1 << 16})
	committed := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		if i%3 == 0 {
			continue // "aborted": never appended
		}
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), []byte("c"))
		buf = StampTxn(buf, off, uint64(i+1))
		if _, err := m.AppendSync(i%2, buf); err != nil {
			t.Fatal(err)
		}
		committed[uint64(i)] = true
	}
	seen := map[uint64]bool{}
	for _, seg := range m.Segments() {
		scanSegment(m, seg, func(_ Addr, rec Record) bool {
			seen[rec.RID] = true
			return true
		})
	}
	if len(seen) != len(committed) {
		t.Fatalf("log has %d records, want %d", len(seen), len(committed))
	}
	for rid := range committed {
		if !seen[rid] {
			t.Fatalf("committed rid %d missing from log", rid)
		}
	}
}

func TestScanSegmentFromResumes(t *testing.T) {
	_, m := testManager(t, Config{Streams: 1, SegmentSize: 1 << 18})
	var want []uint64
	for i := 0; i < 20; i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), []byte("r"))
		buf = StampTxn(buf, off, uint64(i+1))
		if _, err := m.AppendSync(0, buf); err != nil {
			t.Fatal(err)
		}
		want = append(want, uint64(i))
	}
	seg := m.Segments()[0]
	var got []uint64
	next, err := m.ScanSegmentFrom(seg, 0, func(txn []Entry) bool {
		got = append(got, txn[0].RID)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// More records appended after the scan position.
	for i := 20; i < 30; i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), []byte("r"))
		buf = StampTxn(buf, off, uint64(i+1))
		if _, err := m.AppendSync(0, buf); err != nil {
			t.Fatal(err)
		}
		want = append(want, uint64(i))
	}
	next2, err := m.ScanSegmentFrom(seg, next, func(txn []Entry) bool {
		got = append(got, txn[0].RID)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if next2 <= next {
		t.Fatalf("resume offset did not advance: %d -> %d", next, next2)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed scan saw %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %d want %d", i, got[i], want[i])
		}
	}
	// Resuming at the end yields nothing.
	n := 0
	if _, err := m.ScanSegmentFrom(seg, next2, func([]Entry) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("scan past end saw %d records", n)
	}
}

func TestOpenReadOnlyRejectsAppends(t *testing.T) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20})
	m, err := Open(Config{Service: svc, Streams: 1, SegmentSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	buf, off := AppendRecord(nil, OpInsert, 1, 1, []byte("x"))
	buf = StampTxn(buf, off, 1)
	addr, err := m.AppendSync(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	metaID := m.Directory().MetaID()
	segsBefore := len(m.Segments())

	ro, err := OpenReadOnly(Config{Service: svc}, metaID)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	// Reading works; appending does not; no segments were created.
	if rec, err := ro.ReadRecord(addr); err != nil || rec.RID != 1 {
		t.Fatalf("read-only read: %+v %v", rec, err)
	}
	if _, err := ro.AppendSync(0, buf); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only append: %v", err)
	}
	if got := len(ro.Segments()); got != segsBefore {
		t.Fatalf("read-only open changed segment count: %d != %d", got, segsBefore)
	}
	// The follower picks up segments the primary creates later.
	for i := 0; i < 100; i++ {
		big, boff := AppendRecord(nil, OpInsert, 1, uint64(i+10), bytes.Repeat([]byte("y"), 800))
		big = StampTxn(big, boff, uint64(i+2))
		if _, err := m.AppendSync(0, big); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	if err := ro.RefreshDirectory(); err != nil {
		t.Fatal(err)
	}
	if got := len(ro.Segments()); got <= segsBefore {
		t.Fatalf("refresh found no new segments: %d", got)
	}
}

func TestDirectoryMetaMigrationOnSeal(t *testing.T) {
	// Seal the directory's metadata PLog via node failure: the directory
	// must migrate the full mapping to a fresh PLog, report the new
	// bootstrap ID through OnMetaChange, and stay recoverable from it.
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, ComputeNodes: 4})
	var newMeta srss.PLogID
	m, err := Open(Config{Service: svc, Streams: 1, SegmentSize: 2048,
		OnMetaChange: func(id srss.PLogID) error { newMeta = id; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	oldMeta := m.Directory().MetaID()
	var addrs []Addr
	for i := 0; i < 10; i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), bytes.Repeat([]byte("a"), 100))
		buf = StampTxn(buf, off, uint64(i+1))
		a, err := m.AppendSync(0, buf)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	// Fail a node in the metadata PLog's replica set (placement is
	// round-robin and the meta PLog is created first, so with 4 nodes it
	// lives on nodes 1..3): the next directory append must migrate.
	svc.ComputeNode(1).Fail()
	for i := 10; i < 120 && newMeta.IsZero(); i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), bytes.Repeat([]byte("b"), 100))
		buf = StampTxn(buf, off, uint64(i+1))
		a, err := m.AppendSync(0, buf)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if newMeta.IsZero() {
		t.Fatal("metadata migration never triggered")
	}
	if newMeta == oldMeta {
		t.Fatal("OnMetaChange reported the old identity")
	}
	if m.Directory().MetaID() != newMeta {
		t.Fatal("directory did not adopt the migrated PLog")
	}
	// Reopening from the NEW bootstrap ID sees every mapping.
	ro, err := OpenReadOnly(Config{Service: svc}, newMeta)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		rec, err := ro.ReadRecord(a)
		if err != nil || rec.RID != uint64(i) {
			t.Fatalf("record %d via migrated directory: %+v %v", i, rec, err)
		}
	}
	// Either way, all records remain readable through the live manager.
	for i, a := range addrs {
		rec, err := m.ReadRecord(a)
		if err != nil || rec.RID != uint64(i) {
			t.Fatalf("record %d: %+v %v", i, rec, err)
		}
	}
}

func TestRecordChecksumDetectsCorruption(t *testing.T) {
	buf, off := AppendRecord(nil, OpInsert, 3, 7, []byte("integrity"))
	buf = StampTxn(buf, off, 42)
	// Sanity: intact record decodes, the stamp does not break the sum.
	if _, _, err := DecodeRecord(buf); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit.
	for _, pos := range []int{10, len(buf) - 6, len(buf) / 2} {
		corrupt := append([]byte(nil), buf...)
		corrupt[pos] ^= 0x40
		if _, _, err := DecodeRecord(corrupt); err == nil {
			t.Fatalf("corruption at byte %d undetected", pos)
		}
	}
	// The op tag participates in the checksum seed.
	swapped := append([]byte(nil), buf...)
	swapped[0] = OpUpdate
	if _, _, err := DecodeRecord(swapped); err == nil {
		t.Fatal("op tag swap undetected")
	}
}

func TestAddrAddOverflowPanics(t *testing.T) {
	// In range: offset can reach the 32-bit maximum exactly.
	if got := MakeAddr(1, ^uint32(0)-1).Add(1).Offset(); got != ^uint32(0) {
		t.Fatalf("Add to max offset: got %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add past the 32-bit offset limit did not panic")
		}
	}()
	MakeAddr(1, ^uint32(0)-1).Add(2) // wraps: must panic, not mint a bogus address
}

// Regression: the ErrTooLarge path in flushBatch invoked the completion
// callback unconditionally; an oversized fire-and-forget append (nil done)
// panicked and wedged the stream's I/O goroutine, hanging every later commit
// on that stream.
func TestOversizedAppendNilDoneDoesNotWedgeStream(t *testing.T) {
	reg := obs.NewRegistry("wal-test")
	_, m := testManager(t, Config{Streams: 1, SegmentSize: 1 << 12, Obs: reg})

	m.Append(0, make([]byte, 1<<13), nil) // oversized, no callback

	// The I/O goroutine must survive and keep serving the stream.
	if _, err := m.AppendSync(0, []byte("after-oversized")); err != nil {
		t.Fatalf("stream wedged after oversized nil-done append: %v", err)
	}
	// With a callback the same condition is reported, not panicked.
	if _, err := m.AppendSync(0, make([]byte, 1<<13)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: got %v, want ErrTooLarge", err)
	}
	m.Close() // drain so metric writes are visible
	if got := reg.Counter("wal.oversized_rejects").Load(); got != 2 {
		t.Fatalf("oversized_rejects = %d, want 2", got)
	}
}

// The group-commit batch-size histogram must agree with the streams' own
// accounting: Sum == total batched transactions, Count == physical appends.
func TestBatchHistogramMatchesStreamStats(t *testing.T) {
	reg := obs.NewRegistry("wal-test")
	_, m := testManager(t, Config{Streams: 2, Obs: reg})

	const n = 400
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		m.Append(i%2, []byte(fmt.Sprintf("txn-%04d-payload", i)), func(_ Addr, err error) {
			if err != nil {
				t.Error(err)
			}
			wg.Done()
		})
	}
	wg.Wait()
	m.Close() // metric records land before ioLoop exit; Close joins it

	var appends, txns int64
	for i := 0; i < m.Streams(); i++ {
		a, tx, _ := m.Stream(i).Stats()
		appends += a
		txns += tx
	}
	if txns != n {
		t.Fatalf("stream stats report %d txns, want %d", txns, n)
	}
	h := reg.Histogram("wal.batch_txns")
	if h.Sum() != txns {
		t.Fatalf("batch_txns histogram sum = %d, want %d (stream stats)", h.Sum(), txns)
	}
	if h.Count() != appends {
		t.Fatalf("batch_txns histogram count = %d, want %d physical appends", h.Count(), appends)
	}
	if lat := reg.Histogram("wal.commit_latency_ns"); lat.Count() != n {
		t.Fatalf("commit_latency_ns count = %d, want one sample per txn (%d)", lat.Count(), n)
	}
}

// TestSegmentIDsExhaustedFailStop: a segment id is 16 bits of an Addr, so the
// 65,537th segment has no id of its own. A manager started three ids below
// the limit rotates through them and then refuses -- ErrSegmentsExhausted
// from the append that needed the rotation and from every later one -- where
// it used to hand out id 0 again and rebind it under every live address. No
// segment that exists is rebound, every acknowledged record still reads, and
// wal.segments_allocated says how far the ids have run.
func TestSegmentIDsExhaustedFailStop(t *testing.T) {
	const first = math.MaxUint16 - 2 // ids 65533, 65534, 65535 are left
	reg := obs.NewRegistry("wal-test")
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20})
	cfg := Config{Service: svc, Streams: 1, SegmentSize: 256, Obs: reg}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	meta, err := svc.Create(cfg.Tier)
	if err != nil {
		t.Fatal(err)
	}
	dir := newDirectory(svc, meta)
	// A segment of an earlier life of the log holds id 0: the wrapped counter
	// would reissue exactly it.
	old, err := svc.Create(cfg.Tier)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.record(0, old.ID()); err != nil {
		t.Fatal(err)
	}
	m, err := build(cfg, dir, first)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	allocated := func() int64 {
		for _, mt := range reg.Snapshot().Metrics {
			if mt.Name == "wal.segments_allocated" {
				return mt.Value
			}
		}
		t.Fatal("wal.segments_allocated is not exported")
		return 0
	}
	if got := allocated(); got != first+1 {
		t.Fatalf("wal.segments_allocated = %d after the first segment, want %d", got, first+1)
	}

	var acked []Addr
	var failed error
	for i := 0; i < 40 && failed == nil; i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), bytes.Repeat([]byte("x"), 40))
		buf = StampTxn(buf, off, uint64(i+1))
		a, err := m.AppendSync(0, buf)
		if err != nil {
			failed = err
			break
		}
		acked = append(acked, a)
	}
	if !errors.Is(failed, ErrSegmentsExhausted) {
		t.Fatalf("append past the last segment id: %v after %d acked, want ErrSegmentsExhausted", failed, len(acked))
	}
	if got := allocated(); got != math.MaxUint16+1 {
		t.Fatalf("wal.segments_allocated = %d at exhaustion, want %d", got, math.MaxUint16+1)
	}
	segs := map[uint16]bool{}
	for _, a := range acked {
		segs[a.Segment()] = true
	}
	if len(segs) != 3 || !segs[first] || !segs[math.MaxUint16] {
		t.Fatalf("acked records lie in segments %v, want the last three ids", segs)
	}
	// It stays refused: no id comes back.
	if _, err := m.AppendSync(0, bytes.Repeat([]byte("y"), 200)); !errors.Is(err, ErrSegmentsExhausted) {
		t.Fatalf("append after exhaustion: %v, want ErrSegmentsExhausted", err)
	}
	if err := m.RotateAll(); !errors.Is(err, ErrSegmentsExhausted) {
		t.Fatalf("RotateAll after exhaustion: %v, want ErrSegmentsExhausted", err)
	}
	if id, ok := dir.Lookup(0); !ok || id != old.ID() {
		t.Fatalf("segment 0 was rebound: %v (bound %v), want %v", id, ok, old.ID())
	}
	for i, a := range acked {
		rec, err := m.ReadRecord(a)
		if err != nil || rec.RID != uint64(i) {
			t.Fatalf("acked record %d at %v reads %+v (%v)", i, a, rec, err)
		}
	}
}

// TestRecordLen: RecordLen is the length AppendRecord encodes, for a
// transaction's first record and a continuation alike, across the uvarint
// widths of table, RID and payload length, and TrailerLen the length
// StampTxn appends, across the CSN's.
func TestRecordLen(t *testing.T) {
	for _, table := range []uint32{0, 127, 128, 1 << 20, 1<<32 - 1} {
		for _, rid := range []uint64{0, 1, 1 << 14, 1<<48 - 1, 1<<64 - 1} {
			for _, n := range []int{0, 1, 127, 128, 20000} {
				payload := make([]byte, n)
				first, _ := AppendRecord(nil, OpUpdate, table, rid, payload)
				both, off := AppendRecord(first, OpUpdate, table, rid, payload)
				if got := RecordLen(table, rid, n); got != len(first) || got != len(both)-off {
					t.Fatalf("(%d, %d, %d): RecordLen %d, encoded %d first and %d continuing", table, rid, n, got, len(first), len(both)-off)
				}
			}
		}
	}
	for _, csn := range []uint64{0, 1, 127, 128, 1<<21 - 1, 1 << 21, 1<<64 - 1} {
		buf, off := AppendRecord(nil, OpDelete, 1, 1, nil)
		if got, want := TrailerLen(csn), len(StampTxn(buf, off, csn))-len(buf); got != want {
			t.Fatalf("CSN %d: TrailerLen %d, stamped %d", csn, got, want)
		}
	}
}

// scanSegment calls fn with each record of segment seg's whole transactions,
// in append order, with its permanent address and its transaction's CSN.
func scanSegment(m *Manager, seg uint16, fn func(addr Addr, rec Record) bool) error {
	_, err := m.ScanSegmentFrom(seg, 0, func(txn []Entry) bool {
		for _, r := range txn {
			if !fn(r.Addr, r.Record) {
				return false
			}
		}
		return true
	})
	return err
}
