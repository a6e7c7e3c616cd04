package wal

import (
	"bytes"
	"testing"

	"hiengine/internal/srss"
)

// fuzzSegment is a real segment's records: every op, payloads from none to
// several chunks of the fuzz target's 64-byte storage, RIDs and tables whose
// uvarints put record boundaries everywhere relative to the chunks'.
func fuzzSegment() []byte {
	var b []byte
	var off int
	for i, op := range []byte{OpInsert, OpUpdate, OpDelete, OpPrepare, OpDecide, OpForget, OpInsert, OpUpdate} {
		var payload []byte
		if op != OpDelete {
			payload = bytes.Repeat([]byte{byte('a' + i)}, []int{5, 40, 0, 130, 9, 1, 64, 300}[i])
		}
		b, off = AppendRecord(b, op, uint32(i*i*1000), uint64(1)<<(7*i), payload)
		PatchCSN(b, off, uint64(i+1)<<(5*i))
	}
	return b
}

// FuzzRecordScan feeds hostile bytes to what decides truncate-versus-fail
// for a segment. DecodeRecord must not panic and must return a payload that
// lies inside its input. The same bytes, appended to a segment stored in
// 64-byte chunks so that most records straddle one, must scan through the
// chunk windows to exactly the records a walk of the contiguous bytes
// finds, failing if and only if that walk does, and every record found must
// read back the same by address.
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
	huge := append([]byte{OpInsert, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1}, bytes.Repeat([]byte{0xff}, 9)...)
	f.Add(append(huge, 0x7f)) // a payload length near 2^63
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip()
		}
		// The reference: a walk of the contiguous bytes.
		type found struct {
			off int
			rec Record
		}
		var want []found
		var wantErr error
		for pos := 0; pos < len(data); {
			rec, n, err := DecodeRecord(data[pos:])
			if err != nil {
				wantErr = err
				break
			}
			if n <= 0 || n > len(data)-pos {
				t.Fatalf("record at %d is %d bytes long in %d", pos, n, len(data)-pos)
			}
			end := pos + n - 4
			if len(rec.Payload) > 0 && &rec.Payload[0] != &data[end-len(rec.Payload)] || cap(rec.Payload) != len(rec.Payload) {
				t.Fatalf("record at %d: its payload is not the %d bytes before its checksum", pos, len(rec.Payload))
			}
			want = append(want, found{pos, rec})
			pos += n
		}

		svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, ChunkSize: 64})
		m, err := Open(Config{Service: svc, Streams: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		base := appendRaw(t, m, data)
		var got []found
		_, scanErr := m.ScanSegmentFrom(base.Segment(), 0, func(a Addr, rec Record) bool {
			got = append(got, found{int(a.Offset() - base.Offset()), rec})
			return true
		})
		if (scanErr != nil) != (wantErr != nil) {
			t.Fatalf("scan: %v; walk of the same bytes: %v", scanErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("scan found %d records, the walk %d", len(got), len(want))
		}
		r := m.NewReader()
		for i, w := range want {
			byAddr, err := r.ReadRecord(base.Add(uint32(w.off)))
			if err != nil {
				t.Fatalf("record at %d by address: %v", w.off, err)
			}
			for _, g := range []Record{got[i].rec, byAddr} {
				if got[i].off != w.off || g.Op != w.rec.Op || g.CSN != w.rec.CSN || g.Table != w.rec.Table ||
					g.RID != w.rec.RID || !bytes.Equal(g.Payload, w.rec.Payload) {
					t.Fatalf("record %d at %d: through the windows %+v, contiguous %+v", i, w.off, g, w.rec)
				}
			}
		}
	})
}
