package wal

import (
	"bytes"
	"strings"
	"testing"

	"hiengine/internal/srss"
)

// appendRaw appends bytes to stream 0's open segment as they are -- the
// stream would not write a record that does not decode -- and returns the
// address they landed at.
func appendRaw(t testing.TB, m *Manager, b []byte) Addr {
	t.Helper()
	st := m.Stream(0)
	off, err := st.plog.Append(b)
	if err != nil {
		t.Fatal(err)
	}
	return MakeAddr(st.seg, uint32(off))
}

// TestReadRecordReadsOnce: a cold read costs one storage read and one decode
// whatever the row's size (the read used to be a 512-byte guess, quadrupled
// on any decode error), a corrupt record fails on that one read instead of
// re-reading up to the whole segment, and only a record that straddles a
// chunk boundary takes a second, bounded read.
func TestReadRecordReadsOnce(t *testing.T) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, ChunkSize: 5000})
	m, err := Open(Config{Service: svc, Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	row := bytes.Repeat([]byte("0123456789abcdef"), 128) // 2 KiB
	rec, _ := AppendRecord(nil, OpInsert, 1, 7, row)
	reads := func() int64 { return svc.Stats().Reads.Load() }
	bytesRead := func() int64 { return svc.Stats().ReadBytes.Load() }

	intact := appendRaw(t, m, rec)
	r0, b0 := reads(), bytesRead()
	got, err := m.ReadRecord(intact)
	if err != nil || !bytes.Equal(got.Payload, row) || got.RID != 7 {
		t.Fatalf("2 KiB row read back: %v, %d payload bytes", err, len(got.Payload))
	}
	if n := reads() - r0; n != 1 {
		t.Errorf("a 2 KiB row cost %d storage reads, want 1", n)
	}
	if cap(got.Payload) != len(got.Payload) {
		t.Errorf("the payload's capacity (%d) reaches past the record", cap(got.Payload))
	}
	oneWindow := bytesRead() - b0

	flipped := append([]byte(nil), rec...)
	flipped[len(flipped)/2] ^= 0x10
	corrupt := appendRaw(t, m, flipped)
	r0, b0 = reads(), bytesRead()
	if _, err := m.ReadRecord(corrupt); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped payload byte: %v, want a checksum mismatch", err)
	}
	if n, b := reads()-r0, bytesRead()-b0; n != 1 || b > oneWindow {
		t.Errorf("a corrupt record cost %d reads of %d bytes, want 1 read of at most %d", n, b, oneWindow)
	}

	// The third record runs over the chunk boundary at 5000: its window,
	// then exactly its own bytes.
	straddling := appendRaw(t, m, rec)
	if int(straddling.Offset())/5000 == (int(straddling.Offset())+len(rec)-1)/5000 {
		t.Fatalf("record at %d does not straddle a chunk", straddling.Offset())
	}
	r0, b0 = reads(), bytesRead()
	got, err = m.ReadRecord(straddling)
	if err != nil || !bytes.Equal(got.Payload, row) {
		t.Fatalf("straddling row read back: %v", err)
	}
	if n, b := reads()-r0, bytesRead()-b0; n != 2 || b > 5000+int64(len(rec)) {
		t.Errorf("a straddling record cost %d reads of %d bytes, want 2 reads: a window and the record", n, b)
	}

	// A length that claims more than the segment holds is rejected from the
	// header: nothing more is read.
	lying, _ := AppendRecord(nil, OpInsert, 1, 8, make([]byte, 300))
	lying = lying[:100]
	tail := appendRaw(t, m, lying)
	r0 = reads()
	if _, err := m.ReadRecord(tail); err != errShort {
		t.Fatalf("record cut short by the segment's end: %v, want %v", err, errShort)
	}
	if n := reads() - r0; n != 1 {
		t.Errorf("a record cut short cost %d reads, want 1", n)
	}
}

// TestReaderSharesWindows: records of two segments read alternately, each
// segment's in log order, cost a few storage reads per chunk, not one per
// record, and come back as ReadRecord returns them.
func TestReaderSharesWindows(t *testing.T) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, ChunkSize: 4096})
	m, err := Open(Config{Service: svc, Streams: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var addrs []Addr
	for i := 0; i < 400; i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), bytes.Repeat([]byte{byte(i)}, 20+i%50))
		StampTxn(buf, off, uint64(i+1))
		a, err := m.AppendSync(i%2, buf)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	r := m.NewReader()
	w0, s0 := m.WindowReads(), svc.Stats().Reads.Load()
	for i, a := range addrs {
		got, err := r.ReadRecord(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.ReadRecord(a)
		if err != nil {
			t.Fatal(err)
		}
		if got.RID != uint64(i) || got.CSN != want.CSN || got.Op != want.Op || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("record %d: reader %+v, manager %+v", i, got, want)
		}
	}
	// 26 KB of log in 4 KiB chunks: a window per chunk and segment, and a
	// bounded copy or two for each record on a boundary.
	windows := m.WindowReads() - w0 - int64(len(addrs)) // less ReadRecord's one each
	if windows > int64(len(addrs))/8 {
		t.Errorf("reader took %d storage reads for %d records, want a few per chunk", windows, len(addrs))
	}
	if got := svc.Stats().Reads.Load() - s0; got < m.WindowReads()-w0 {
		t.Errorf("WindowReads counts %d reads, the storage %d", m.WindowReads()-w0, got)
	}
}
