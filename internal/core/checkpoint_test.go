package core

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// imageEntry is one checkpoint image entry.
type imageEntry struct {
	table     uint32
	rid       RID
	addr, csn uint64
}

// entriesFrom turns arbitrary bytes into a valid image's entries: ascending
// RIDs within each table run, four segment keys (an occasional one past 16
// bits), offsets anywhere in [0, 2^32) and CSNs anywhere in uint64, so that
// deltas of either sign and segment switches all occur.
func entriesFrom(data []byte) []imageEntry {
	var out []imageEntry
	table, rid := uint32(1), RID(0)
	for len(data) >= 8 {
		c, d := data[0], data[1:8]
		data = data[8:]
		if c&0x80 != 0 { // a new table run
			table, rid = table+uint32(c&3)+1, 0
		}
		step := RID(c&0x0f) + 1
		if c&0x40 != 0 {
			step = RID(binary.LittleEndian.Uint32(d[:4]))%(maxImageRID-rid) + 1
		}
		if step > maxImageRID-rid {
			break
		}
		rid += step
		key := uint64(c>>4&3) << 16
		if c&0x20 != 0 {
			key |= uint64(d[4])
		}
		off := uint64(binary.LittleEndian.Uint32(d[:4]))
		csn := binary.LittleEndian.Uint64(append(d[3:7:7], d[:4]...))
		out = append(out, imageEntry{table, rid, key<<32 | off, csn})
	}
	return out
}

// FuzzCheckpointImage: any ascending-RID entry list round-trips exactly
// through imageWriter and readImage, and arbitrary bytes decode to an error
// or to entries a PIA can hold -- never a panic, a RID that wrapped or left
// 48 bits, or more entries than the bytes could spell. (An offset past 32
// bits, which would spill into the segment key, is an error:
// TestCheckpointImageRejectsDamage.)
func FuzzCheckpointImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 2, 0, 0, 0})
	f.Add([]byte{0x85, 1, 2, 3, 4, 5, 6, 7, 0x31, 9, 8, 7, 6, 5, 4, 3, 0x02, 0xff, 0xff, 0xff, 0xff, 1, 1, 1})
	f.Add([]byte{0xe7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x41, 0, 0, 0, 0, 0, 0, 0})
	var w imageWriter
	for i, e := range entriesFrom([]byte("some-seed-bytes-that-make-a-few-entries-for-the-corpus")) {
		w.add(e.table, e.rid, e.addr, e.csn+uint64(i))
	}
	w.end()
	f.Add(w.buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		want := entriesFrom(data)
		var w imageWriter
		for _, e := range want {
			w.add(e.table, e.rid, e.addr, e.csn)
		}
		w.end()
		var got []imageEntry
		if err := readImage(w.buf, func(table uint32, rid RID, addr, csn uint64) error {
			got = append(got, imageEntry{table, rid, addr, csn})
			return nil
		}); err != nil {
			t.Fatalf("an image of %d entries does not decode: %v", len(want), err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round trip of %d entries:\n got %v\nwant %v", len(want), got, want)
		}

		n := 0
		_ = readImage(data, func(tb uint32, rid RID, addr, _ uint64) error {
			if n++; rid == 0 || rid > maxImageRID || n > len(data)/3 {
				t.Fatalf("hostile image of %d bytes yielded entry %d: table %d rid %d addr %#x", len(data), n, tb, rid, addr)
			}
			return nil
		})
	})
}

// TestCheckpointImageRejectsDamage: an image cut anywhere but at a run's end,
// and the hostile values the format rules out, are errors.
func TestCheckpointImageRejectsDamage(t *testing.T) {
	var w imageWriter
	w.add(7, 1, 3<<48|100, 50)
	w.add(7, 2, 3<<48|160, 50)
	w.add(7, 5, 4<<48|40, 51)
	w.end()
	for cut := 1; cut < len(w.buf); cut++ {
		if err := readImage(w.buf[:cut], func(uint32, RID, uint64, uint64) error { return nil }); err == nil {
			t.Errorf("an image cut at %d of %d bytes decoded", cut, len(w.buf))
		}
	}
	for name, b := range map[string][]byte{
		"zero RID delta":        {7, 1, 5, 0, 0, 0},
		"RID past 48 bits":      binary.AppendUvarint([]byte{7}, (maxImageRID+1)<<1),
		"segment key too wide":  append(binary.AppendUvarint([]byte{7, 3}, 1<<32), 0, 0, 0),
		"negative offset":       {7, 2, 1, 0, 0},
		"offset past 32 bits":   append(binary.AppendVarint([]byte{7, 2}, 1<<32), 0, 0),
		"table id past 32 bits": append(binary.AppendUvarint(nil, 1<<32), 2, 0, 0, 0),
	} {
		if err := readImage(b, func(uint32, RID, uint64, uint64) error { return nil }); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
