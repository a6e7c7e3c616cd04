package wal

import (
	"errors"
	"testing"

	"hiengine/internal/chaos"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

// TestAppendGiveupWhenTierDown: with every storage node failed, the bounded
// retry loop gives up with an error wrapping srss.ErrNoHealthyNodes instead
// of spinning forever.
func TestAppendGiveupWhenTierDown(t *testing.T) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, ComputeNodes: 3})
	m, err := Open(Config{Service: svc, Streams: 1, Obs: obs.NewRegistry("test")})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		svc.ComputeNode(i).Fail()
	}
	buf, off := AppendRecord(nil, OpInsert, 1, 1, []byte("doomed"))
	buf = StampTxn(buf, off, 1)
	_, aerr := m.AppendSync(0, buf)
	if !errors.Is(aerr, srss.ErrNoHealthyNodes) {
		t.Fatalf("append with tier down: %v, want wrapped ErrNoHealthyNodes", aerr)
	}
	if got := m.mGiveups.Load(); got != 1 {
		t.Fatalf("giveups = %d, want 1", got)
	}
	// The stream survives the giveup: heal the tier and the next append
	// succeeds on a fresh segment.
	for i := 0; i < 3; i++ {
		svc.ComputeNode(i).Heal()
	}
	if _, err := m.AppendSync(0, buf); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
}

// TestFlushCrashSites: the before-site fails the batch with nothing durable;
// the after-site fails the batch but recovery sees the records.
func TestFlushCrashSites(t *testing.T) {
	for _, site := range []string{SiteFlushBefore, SiteFlushAfter} {
		ch := chaos.New(11)
		ch.Arm(chaos.Rule{Site: site, Action: chaos.Crash, OnHit: 1})
		svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, Chaos: ch})
		m, err := Open(Config{Service: svc, Streams: 1})
		if err != nil {
			t.Fatal(err)
		}
		buf, off := AppendRecord(nil, OpInsert, 1, 7, []byte("batch"))
		buf = StampTxn(buf, off, 5)
		_, aerr := m.AppendSync(0, buf)
		if !errors.Is(aerr, chaos.ErrCrashed) {
			t.Fatalf("%s: append error = %v", site, aerr)
		}
		if appends, txns, bytes := m.Stream(0).Stats(); appends+txns+bytes != 0 {
			t.Fatalf("%s: crashed batch counted: %d appends, %d txns, %d bytes", site, appends, txns, bytes)
		}
		m.Close()
		ch.ClearCrash()

		// "Restart": reopen via the metadata PLog and count durable records.
		m2, err := Reopen(Config{Service: svc, Streams: 1}, m.Directory().MetaID())
		if err != nil {
			t.Fatalf("%s: reopen: %v", site, err)
		}
		seen := 0
		for _, seg := range m2.Segments() {
			if err := scanSegment(m2, seg, func(_ Addr, _ Record) bool { seen++; return true }); err != nil {
				t.Fatalf("%s: scan: %v", site, err)
			}
		}
		want := 0
		if site == SiteFlushAfter {
			want = 1 // durable but unacked
		}
		if seen != want {
			t.Fatalf("%s: %d records after recovery, want %d", site, seen, want)
		}
		m2.Close()
	}
}

// TestTornTailTruncation: a torn final append is detected by the scan, which
// truncates at the last valid record instead of erroring, and counts the
// truncation.
func TestTornTailTruncation(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		ch := chaos.New(seed)
		svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, ComputeNodes: 5, Chaos: ch})
		m, err := Open(Config{Service: svc, Streams: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Two good records, then a torn third.
		var good []Addr
		for i := 0; i < 2; i++ {
			buf, off := AppendRecord(nil, OpInsert, 1, uint64(i), []byte("intact-record-payload"))
			buf = StampTxn(buf, off, uint64(i+1))
			a, err := m.AppendSync(0, buf)
			if err != nil {
				t.Fatalf("seed %d: good append %d: %v", seed, i, err)
			}
			good = append(good, a)
		}
		ch.Arm(chaos.Rule{Site: srss.SiteAppendTear, Action: chaos.Tear, OnHit: ch.Hits(srss.SiteAppendTear) + 1})
		buf, off := AppendRecord(nil, OpInsert, 1, 99, []byte("this-record-will-be-torn-apart"))
		buf = StampTxn(buf, off, 3)
		if _, err := m.AppendSync(0, buf); !errors.Is(err, chaos.ErrCrashed) {
			t.Fatalf("seed %d: torn append error = %v", seed, err)
		}
		m.Close()
		ch.ClearCrash()
		ch.Disarm(srss.SiteAppendTear)

		m2, err := Reopen(Config{Service: svc, Streams: 1}, m.Directory().MetaID())
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		var got []Addr
		var end int64
		for _, seg := range m2.Segments() {
			e, err := m2.ScanSegmentFrom(seg, 0, func(txn []Entry) bool {
				got = append(got, txn[0].Addr)
				return true
			})
			if err != nil {
				t.Fatalf("seed %d: scan segment %d: %v", seed, seg, err)
			}
			if len(got) > 0 && e > end {
				end = e
			}
		}
		if len(got) != 2 || got[0] != good[0] || got[1] != good[1] {
			t.Fatalf("seed %d: replay saw %v, want %v", seed, got, good)
		}
		cnt, bytes := m2.TailTruncations()
		if cnt != 1 || bytes <= 0 {
			t.Fatalf("seed %d: truncations = %d/%d bytes, want 1/>0", seed, cnt, bytes)
		}
		m2.Close()
	}
}

// TestGenuineCorruptionStillFails: a checksum-flip on a consistent,
// untorn segment must NOT be silently truncated.
func TestGenuineCorruptionStillFails(t *testing.T) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20})
	m, err := Open(Config{Service: svc, Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	buf, off := AppendRecord(nil, OpInsert, 1, 1, []byte("valid"))
	buf = StampTxn(buf, off, 1)
	if _, err := m.AppendSync(0, buf); err != nil {
		t.Fatal(err)
	}
	// Append garbage that decodes to nothing, replicated identically (so
	// replicas are consistent and the plog is not torn).
	seg := m.Stream(0).seg
	id, _ := m.Directory().Lookup(seg)
	p, err := svc.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	err = scanSegment(m, seg, func(_ Addr, _ Record) bool { return true })
	if err == nil {
		t.Fatal("consistent corruption was silently truncated")
	}
	if cnt, _ := m.TailTruncations(); cnt != 0 {
		t.Fatalf("truncation counted for genuine corruption: %d", cnt)
	}
}

// TestMissingTrailer: a transaction whose last record ends the segment without
// the CSN that follows it is a torn tail on a torn segment -- truncated at
// its first record -- and corruption on a sealed, untorn one, whose replicas
// agree: the scan fails with ErrCorrupt and truncates nothing.
func TestMissingTrailer(t *testing.T) {
	for _, torn := range []bool{true, false} {
		svc := srss.New(srss.Config{MaxPLogSize: 1 << 20})
		m, err := Open(Config{Service: svc, Streams: 1})
		if err != nil {
			t.Fatal(err)
		}
		buf, off := AppendRecord(nil, OpInsert, 1, 1, []byte("whole"))
		if _, err := m.AppendSync(0, StampTxn(buf, off, 1)); err != nil {
			t.Fatal(err)
		}
		// A second transaction, end-marked, without its trailer.
		buf, off = AppendRecord(nil, OpInsert, 1, 2, []byte("unstamped"))
		buf[off] |= markEnd
		p := m.Stream(0).plog
		if _, err := p.Append(buf); err != nil {
			t.Fatal(err)
		}
		if torn {
			p.SealTorn()
		} else {
			p.Seal()
		}
		var rids []uint64
		err = scanSegment(m, m.Stream(0).seg, func(_ Addr, r Record) bool {
			rids = append(rids, r.RID)
			return true
		})
		cnt, _ := m.TailTruncations()
		switch {
		case len(rids) != 1 || rids[0] != 1:
			t.Fatalf("torn %v: scan delivered RIDs %v, want [1]", torn, rids)
		case torn && (err != nil || cnt != 1):
			t.Fatalf("torn: %v, %d truncations; want the tail truncated once", err, cnt)
		case !torn && (!errors.Is(err, ErrCorrupt) || cnt != 0):
			t.Fatalf("sealed untorn: %v, %d truncations; want ErrCorrupt and none", err, cnt)
		}
		m.Close()
	}
}
