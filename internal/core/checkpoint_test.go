package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// fuzzKey is index i's key of an entry made from k: a unique int key, a
// string key of changing length with escaped zero bytes, and a composite
// (int, string) key; a NULL now and then, whose key shares no first byte
// with the others of its index.
func fuzzKey(i int, k []byte) []byte {
	if k[3]&0x80 != 0 && i > 0 {
		return EncodeKey(nil, Value{})
	}
	switch i % 3 {
	case 0:
		return EncodeKey(nil, I(int64(binary.LittleEndian.Uint16(k[1:3]))))
	case 1:
		return EncodeKey(nil, S(strings.Repeat("ab\x00", int(k[1]&7))+fmt.Sprint(k[2])))
	default:
		return EncodeKey(nil, I(int64(k[1]>>4)), S(string(k[2:4])))
	}
}

// entriesFrom turns arbitrary bytes into a valid image's entries: ascending
// RIDs within each table run, four segment keys (an occasional one past 16
// bits), offsets anywhere in [0, 2^32), CSNs anywhere in uint64, payload
// lengths that mostly repeat, records first or not, and zero to three keys
// an entry, so that deltas of either sign, segment switches and every key
// coding case all occur. close says where a block ends.
func entriesFrom(data []byte) (out []imageEntry, close []bool) {
	table, rid, nkeys := uint32(1), RID(0), 2
	for len(data) >= 12 {
		c, d, k := data[0], data[1:8], data[8:12]
		data = data[12:]
		if c&0x80 != 0 { // a new table run
			table, rid, nkeys = table+uint32(c&3)+1, 0, int(k[0]>>6)
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
		n := 40
		if k[0]&0x10 != 0 {
			n = int(binary.LittleEndian.Uint16(k[1:3]))
		}
		e := imageEntry{table: table, rid: rid, addr: key<<32 | off, csn: csn, first: k[0]&1 != 0, n: n}
		for i := 0; i < nkeys; i++ {
			e.keys = append(e.keys, fuzzKey(i, k))
		}
		out = append(out, e)
		close = append(close, k[0]&0x20 != 0)
	}
	return out, close
}

// readImage hands fn every entry of an image (its bytes after the header),
// block by block.
func readImage(b []byte, fn func(e *imageEntry) error) error {
	blocks, err := imageBlocks(b)
	if err != nil {
		return err
	}
	var r imageReader
	for _, body := range blocks {
		if err := r.readBlock(body, true, fn); err != nil {
			return err
		}
	}
	return nil
}

// collect decodes an image into entries that own their keys.
func collect(t *testing.T, img []byte) []imageEntry {
	t.Helper()
	var got []imageEntry
	if err := readImage(img, func(e *imageEntry) error {
		c := *e
		c.keys = nil
		for _, k := range e.keys {
			c.keys = append(c.keys, bytes.Clone(k))
		}
		got = append(got, c)
		return nil
	}); err != nil {
		t.Fatalf("an image of %d bytes does not decode: %v", len(img), err)
	}
	return got
}

// FuzzCheckpointImage: any ascending-RID entry list -- keys and framing
// included, blocks closed anywhere -- round-trips exactly through
// imageWriter and readImage, and arbitrary bytes decode, as an image or as a
// block body, to an error or to entries a PIA can hold: never a panic, a RID
// that wrapped or left 48 bits, or more entries than the bytes could spell.
// (An offset past 32 bits, which would spill into the segment key, is an
// error: TestCheckpointImageRejectsDamage.)
func FuzzCheckpointImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 2, 0, 0, 0})
	f.Add([]byte{0x85, 1, 2, 3, 4, 5, 6, 7, 0x91, 9, 8, 7, 0x31, 9, 8, 7, 6, 5, 4, 3, 0x02, 0xff, 0xff, 0xff, 0xff, 1, 1, 1})
	f.Add([]byte{0xe7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x41, 0, 0, 0, 0x41, 0, 0, 0, 0, 0, 0, 0, 0x31, 0xff, 0, 0x80})
	seed := []byte("some-seed-bytes-that-make-a-few-entries-for-the-corpus, with keys")
	// RIDs past a table's first partition: 2^20, partition 1's first at the
	// engine's 20 slot bits, the one after it, and one 2^32 further on.
	dense := []byte{
		0x40, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0x01, 0, 0, 0,
		0x00, 1, 2, 3, 4, 5, 6, 7, 0x00, 0, 0, 0,
		0x40, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x01, 0, 0, 0,
	}
	for _, in := range [][]byte{seed, dense} {
		f.Add(in)
		var w imageWriter
		es, _ := entriesFrom(in)
		for _, e := range es {
			w.add(&e)
		}
		w.closeBlock()
		f.Add(w.buf)
		f.Add(w.buf[4 : len(w.buf)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, closeAt := entriesFrom(data)
		var w imageWriter
		for i := range want {
			w.add(&want[i])
			if closeAt[i] {
				w.closeBlock()
			}
		}
		w.closeBlock()
		if got := collect(t, w.buf); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round trip of %d entries:\n got %v\nwant %v", len(want), got, want)
		}

		n := 0
		check := func(e *imageEntry) error {
			if n++; e.rid == 0 || e.rid > maxImageRID || n > len(data)/3 {
				t.Fatalf("hostile image of %d bytes yielded entry %d: table %d rid %d addr %#x", len(data), n, e.table, e.rid, e.addr)
			}
			return nil
		}
		_ = readImage(data, check)
		var r imageReader
		for _, keys := range []bool{true, false} {
			n = 0
			_ = r.readBlock(data, keys, check)
		}
	})
}

// encodeImage encodes entries as one image, header and all.
func encodeImage(es ...imageEntry) []byte {
	w := imageWriter{buf: []byte{checkpointHeader}}
	for i := range es {
		w.add(&es[i])
	}
	w.closeBlock()
	return w.buf
}

// TestCheckpointImageRejectsDamage: an image cut anywhere but at a block's
// end, and the hostile values the format rules out, are errors; and a
// recovery from an image with a byte flipped inside a key, or inside a
// block's checksum, fails rather than build an index from it.
func TestCheckpointImageRejectsDamage(t *testing.T) {
	img := encodeImage(
		imageEntry{table: 7, rid: 1, addr: 3<<48 | 100, csn: 50, first: true, n: 20, keys: [][]byte{{1, 2}}},
		imageEntry{table: 7, rid: 2, addr: 3<<48 | 160, csn: 50, n: 20, keys: [][]byte{{1, 3}}},
		imageEntry{table: 7, rid: 5, addr: 4<<48 | 40, csn: 51, n: 22, keys: [][]byte{{2}}},
	)[1:]
	for cut := 1; cut < len(img); cut++ {
		if err := readImage(img[:cut], func(*imageEntry) error { return nil }); err == nil {
			t.Errorf("an image cut at %d of %d bytes decoded", cut, len(img))
		}
	}
	for name, b := range map[string][]byte{
		"zero RID delta":        {7, 0, 2, 0, 0, 0},
		"RID past 48 bits":      binary.AppendUvarint([]byte{7, 0}, (maxImageRID+1)<<3),
		"segment key too wide":  append(binary.AppendUvarint([]byte{7, 0, 9}, 1<<32), 0, 0, 0),
		"negative offset":       {7, 0, 8, 1, 0, 0},
		"offset past 32 bits":   append(binary.AppendVarint([]byte{7, 0, 8}, 1<<32), 0, 0),
		"length past 32 bits":   append(binary.AppendUvarint([]byte{7, 0, 12}, 1<<32), 0, 0, 0),
		"table id past 32 bits": append(binary.AppendUvarint(nil, 1<<32), 0, 8, 0, 0, 0),
		"too many keys":         {7, 0xff, 0x7f, 8, 0, 0, 0},
		"key drops too much":    {7, 1, 8, 0, 0, 0x11, 1},
		"key spells too much":   {7, 1, 8, 0, 0, 0x50, 1, 2},
		"run without its end":   {7, 1, 8, 0, 0, 0x10, 1},
	} {
		var r imageReader
		if err := r.readBlock(b, true, func(*imageEntry) error { return nil }); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}

	for _, part := range []string{"key", "checksum"} {
		e := testEngine(t)
		tbl := mustTable(t, e, usersSchema())
		for i := int64(0); i < 100; i++ {
			insertUser(t, e, tbl, 0, i, fmt.Sprintf("user-%d", i), i)
		}
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		p, err := e.svc.Open(e.lastImage)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, p.Size())
		if _, err := p.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
		// The first entry's keys are written whole: its name key spells
		// "user-0". The first block's checksum ends it.
		at := bytes.Index(b, []byte("user-0")) + 5
		if part == "checksum" {
			at = 1 + 4 + int(binary.LittleEndian.Uint32(b[1:])) + 2
		}
		b[at] ^= 0x08
		// Register the damaged copy as the newest checkpoint.
		bad, err := e.svc.Create(p.Tier())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bad.Append(b); err != nil {
			t.Fatal(err)
		}
		bad.Seal()
		rec := bytes.Clone(e.lastCkptPayload)
		id := bad.ID()
		copy(rec, id[:])
		if err := e.appendManifest(manifestCheckpoint, rec); err != nil {
			t.Fatal(err)
		}
		manifest, svc := e.ManifestID(), e.Service()
		e.Close()
		if e2, _, err := Recover(Config{Service: svc}, manifest, RecoverOptions{ReplayThreads: 2}); err == nil {
			e2.Close()
			t.Errorf("a recovery from an image with a byte flipped in a %s succeeded", part)
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Errorf("a byte flipped in a %s: %v, want a checksum mismatch", part, err)
		}
	}
}
