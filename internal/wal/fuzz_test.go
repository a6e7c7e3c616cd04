package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hiengine/internal/srss"
)

// fuzzSegment is a real segment's transactions: every op, payloads from none
// to several chunks of the fuzz targets' 64-byte storage, RIDs and tables
// whose uvarints put record boundaries everywhere relative to the chunks',
// one-record transactions and a three-record one.
func fuzzSegment() []byte {
	var seg, txn []byte
	var off int
	for i, op := range []byte{OpInsert, OpUpdate, OpDelete, OpPrepare, OpDecide, OpForget, OpInsert, OpUpdate} {
		var payload []byte
		if op != OpDelete {
			payload = bytes.Repeat([]byte{byte('a' + i)}, []int{5, 40, 0, 130, 9, 1, 64, 300}[i])
		}
		txn, off = AppendRecord(txn, op, uint32(i*i*1000), uint64(1)<<(7*i), payload)
		if i < 5 || i == 7 { // records 5, 6 and 7 are one transaction
			StampTxn(txn, off, uint64(i+1)<<(5*i))
			seg, txn = append(seg, txn...), txn[:0]
		}
	}
	return seg
}

// found is a record a scan delivered, or a walk of contiguous bytes found: its
// offset in the fuzzed bytes, and the record with its transaction's CSN.
type found struct {
	off int
	rec Record
}

// walkTxns is the reference a scan of data is held to: the whole transactions
// a walk of the contiguous bytes finds, and the error it stops at, if any. It
// also checks that every payload DecodeRecord returns lies inside its input.
func walkTxns(t *testing.T, data []byte) (txns [][]found, err error) {
	for pos := 0; pos < len(data); {
		var txn []found
		for end := false; !end; {
			if pos == len(data) {
				return txns, errShort
			}
			rec, mark, n, err := decode(data[pos:])
			if err == nil && (mark&markCont != 0) != (len(txn) > 0) {
				err = errOutOfPlace
			}
			if err != nil {
				return txns, err
			}
			if n <= 0 || n > len(data)-pos {
				t.Fatalf("record at %d is %d bytes long in %d", pos, n, len(data)-pos)
			}
			last := pos + n - 4
			if len(rec.Payload) > 0 && &rec.Payload[0] != &data[last-len(rec.Payload)] || cap(rec.Payload) != len(rec.Payload) {
				t.Fatalf("record at %d: its payload is not the %d bytes before its checksum", pos, len(rec.Payload))
			}
			if len(txn) > 0 {
				rec.CSN = txn[0].rec.CSN
			}
			txn = append(txn, found{pos, rec})
			pos += n
			end = mark&markEnd != 0
		}
		txns = append(txns, txn)
	}
	return txns, nil
}

// scanRaw appends data to a fresh log stored in 64-byte chunks, so that most
// records straddle one -- sealed torn if torn -- and scans it. It checks the
// scan's rules against the bytes themselves: every transaction delivered is
// whole, its first record carries its CSN and is no continuation, every later
// one is a continuation up to the one marked the end, transactions follow each
// other from the first byte on, and every record delivered reads back the same
// by address.
func scanRaw(t *testing.T, data []byte, torn bool) (got [][]found, end int, truncations int64, err error) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, ChunkSize: 64})
	m, oerr := Open(Config{Service: svc, Streams: 1})
	if oerr != nil {
		t.Fatal(oerr)
	}
	defer m.Close()
	base := appendRaw(t, m, data)
	if torn {
		m.Stream(0).plog.SealTorn()
	}
	stop, err := m.ScanSegmentFrom(base.Segment(), 0, func(txn []Entry) bool {
		var fs []found
		for _, r := range txn {
			fs = append(fs, found{int(r.Addr.Offset() - base.Offset()), r.Record})
		}
		got = append(got, fs)
		return true
	})
	next := 0
	r := m.NewReader()
	for i, txn := range got {
		for j, f := range txn {
			if f.off != next {
				t.Fatalf("transaction %d record %d at %d, want %d: a scan delivers whole transactions back to back", i, j, f.off, next)
			}
			op := data[f.off]
			if cont := op&markCont != 0; cont != (j > 0) {
				t.Fatalf("transaction %d record %d at %d: continuation %v", i, j, f.off, cont)
			}
			if end := op&markEnd != 0; end != (j == len(txn)-1) {
				t.Fatalf("transaction %d record %d at %d: end mark %v, %d records delivered", i, j, f.off, end, len(txn))
			}
			if csn := binary.LittleEndian.Uint64(data[txn[0].off+1:]); f.rec.CSN != csn {
				t.Fatalf("transaction %d record %d: CSN %d, its first record's is %d", i, j, f.rec.CSN, csn)
			}
			byAddr, rerr := r.ReadRecord(base.Add(uint32(f.off)))
			if rerr != nil {
				t.Fatalf("record at %d by address: %v", f.off, rerr)
			}
			if byAddr.Op != f.rec.Op || byAddr.Table != f.rec.Table || byAddr.RID != f.rec.RID || !bytes.Equal(byAddr.Payload, f.rec.Payload) {
				t.Fatalf("record at %d: scanned %+v, by address %+v", f.off, f.rec, byAddr)
			}
			_, _, n, _ := decode(data[f.off:])
			next += n
		}
	}
	if err == nil && int(stop-int64(base.Offset())) != next {
		t.Fatalf("scan stopped at %d, past its last transaction at %d", stop-int64(base.Offset()), next)
	}
	truncations, _ = m.TailTruncations()
	return got, next, truncations, err
}

// FuzzRecordScan feeds hostile bytes to what decides truncate-versus-fail
// for a segment. The bytes, appended to a segment that is neither torn nor
// growing, must scan through the chunk windows to exactly the transactions a
// walk of the contiguous bytes finds, failing if and only if that walk does:
// a record that does not decode, one out of place in its transaction, or
// bytes that end inside one.
func FuzzRecordScan(f *testing.F) {
	seg := fuzzSegment()
	f.Add(seg)
	f.Add(seg[:len(seg)-3])       // cut inside the last checksum
	f.Add(seg[:len(seg)/2])       // cut inside a payload
	f.Add(seg[:12])               // cut inside a header
	f.Add(append([]byte{}, 0xff)) // no op tag
	flipped := append([]byte(nil), seg...)
	flipped[70] ^= 1
	f.Add(flipped)
	unended := append([]byte(nil), seg...)
	last := 0
	for pos := 0; pos < len(unended); {
		_, _, n, _ := decode(unended[pos:])
		last, pos = pos, pos+n
	}
	unended[last] &^= markEnd // the three-record transaction loses its end
	f.Add(unended)
	huge := append([]byte{OpInsert, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1}, bytes.Repeat([]byte{0xff}, 9)...)
	f.Add(append(huge, 0x7f)) // a payload length near 2^63
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip()
		}
		want, wantErr := walkTxns(t, data)
		got, _, _, scanErr := scanRaw(t, data, false)
		if (scanErr != nil) != (wantErr != nil) {
			t.Fatalf("scan: %v; walk of the same bytes: %v", scanErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("scan found %d transactions, the walk %d", len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("transaction %d: scan found %d records, the walk %d", i, len(got[i]), len(want[i]))
			}
			for j, w := range want[i] {
				g := got[i][j]
				if g.off != w.off || g.rec.CSN != w.rec.CSN || g.rec.Op != w.rec.Op || g.rec.Table != w.rec.Table || g.rec.RID != w.rec.RID || !bytes.Equal(g.rec.Payload, w.rec.Payload) {
					t.Fatalf("transaction %d record %d: scanned at %d %+v, walked at %d %+v", i, j, g.off, g.rec, w.off, w.rec)
				}
			}
		}
	})
}

// FuzzTornGroupAppend cuts a group append of valid transactions anywhere, as
// a writer dying mid-replication does, and scans what is left of it: the
// scan succeeds and delivers exactly the transactions wholly inside the cut,
// and a cut inside a transaction truncates at its first record -- not at the
// last whole record before the cut.
func FuzzTornGroupAppend(f *testing.F) {
	f.Add([]byte{0x05, 0x06, 0x87, 0x02, 0x90, 0x03, 0x04, 0x05, 0x06, 0x07, 0x88}, uint16(100))
	f.Add([]byte{0x85, 0x86, 0x87}, uint16(40))
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}, uint16(77))
	f.Fuzz(func(t *testing.T, shape []byte, cut uint16) {
		if len(shape) > 64 {
			t.Skip()
		}
		// Each shape byte is a record: its payload length, its op, and in
		// the top bit whether it ends its transaction.
		var group, txn []byte
		var ends []int // where each transaction ends in group
		for i, b := range shape {
			op := []byte{OpInsert, OpUpdate, OpDelete}[int(b)%3]
			var payload []byte
			if op != OpDelete {
				payload = bytes.Repeat([]byte{b}, int(b&0x7f))
			}
			var off int
			txn, off = AppendRecord(txn, op, uint32(b), uint64(i)<<(b%50), payload)
			if b&0x80 != 0 || i == len(shape)-1 {
				StampTxn(txn, off, uint64(i+1)*0x0101010101)
				group, txn = append(group, txn...), txn[:0]
				ends = append(ends, len(group))
			}
		}
		c := int(cut) % (len(group) + 1)
		whole, nwhole := 0, 0 // the transactions wholly inside the cut: their bytes, their count
		for _, e := range ends {
			if e <= c {
				whole, nwhole = e, nwhole+1
			}
		}
		got, end, truncations, err := scanRaw(t, group[:c], true)
		if err != nil {
			t.Fatalf("torn group cut at %d of %d: %v", c, len(group), err)
		}
		if len(got) != nwhole || end != whole {
			t.Fatalf("cut at %d of %d: scan delivered %d transactions ending at %d, want the %d ending at %d", c, len(group), len(got), end, nwhole, whole)
		}
		wantTruncations := int64(0)
		if c > whole {
			wantTruncations = 1
		}
		if truncations != wantTruncations {
			t.Fatalf("cut at %d, last whole transaction ends at %d: %d truncations, want %d", c, whole, truncations, wantTruncations)
		}
	})
}
