package wal

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

// TestFollowerLiveTailSoak races a committing writer against a read-only
// follower catch-up-scanning the active segment: every acked commit must
// be observed exactly once, in commit order, and the in-flight tail must
// never be misread as torn (zero truncations). Run with -race.
func TestFollowerLiveTailSoak(t *testing.T) {
	const total = 1500
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20})
	w, err := Open(Config{Service: svc, Streams: 1, SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenReadOnly(Config{Service: svc, Streams: 1, Obs: obs.NewRegistry("follower")},
		w.Directory().MetaID())
	if err != nil {
		t.Fatal(err)
	}

	// Writer: commit CSNs 1..total; acked publishes the durable horizon.
	var acked atomic.Uint64
	writeErr := make(chan error, 1)
	go func() {
		defer close(writeErr)
		for i := uint64(1); i <= total; i++ {
			buf, off := AppendRecord(nil, OpInsert, 1, i, []byte("soak-payload-of-nontrivial-length"))
			buf = StampTxn(buf, off, i)
			if _, err := w.AppendSync(0, buf); err != nil {
				writeErr <- err
				return
			}
			acked.Store(i)
		}
	}()

	// Follower: poll-scan segments from saved offsets while the writer
	// runs. The single writer fills segments strictly in order, so
	// scanning segments in ascending order yields global commit order.
	applied := make(map[uint16]int64)
	var got []uint64
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := f.RefreshDirectory(); err != nil {
			t.Fatal(err)
		}
		for _, seg := range f.Segments() {
			next, err := f.ScanSegmentFrom(seg, applied[seg], func(txn []Entry) bool {
				got = append(got, txn[0].CSN)
				return true
			})
			if err != nil {
				t.Fatalf("segment %d: %v", seg, err)
			}
			applied[seg] = next
		}
		if len(got) > 0 && got[len(got)-1] >= total {
			break
		}
		select {
		case err, ok := <-writeErr:
			if ok && err != nil {
				t.Fatal(err)
			}
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stalled: saw %d records, acked %d", len(got), acked.Load())
		}
	}
	if err, ok := <-writeErr; ok && err != nil {
		t.Fatal(err)
	}

	// Exactly once, in order: the observed CSNs are precisely 1..total.
	if len(got) != total {
		t.Fatalf("observed %d records, want %d", len(got), total)
	}
	for i, csn := range got {
		if csn != uint64(i+1) {
			t.Fatalf("record %d has CSN %d, want %d (out of order or duplicated)", i, csn, i+1)
		}
	}
	if cnt, bytes := f.TailTruncations(); cnt != 0 || bytes != 0 {
		t.Fatalf("spurious tail truncations during live tail: %d (%d bytes)", cnt, bytes)
	}
	w.Close()
}

// TestTailTruncationCountedOnce repeats catch-up scans over the same torn
// segment on one manager: the truncation is counted exactly once, not once
// per scan.
func TestTailTruncationCountedOnce(t *testing.T) {
	ch := chaos.New(3)
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20, ComputeNodes: 5, Chaos: ch})
	m, err := Open(Config{Service: svc, Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf, off := AppendRecord(nil, OpInsert, 1, 1, []byte("good-record"))
	buf = StampTxn(buf, off, 1)
	if _, err := m.AppendSync(0, buf); err != nil {
		t.Fatal(err)
	}
	ch.Arm(chaos.Rule{Site: srss.SiteAppendTear, Action: chaos.Tear, OnHit: ch.Hits(srss.SiteAppendTear) + 1})
	buf, off = AppendRecord(nil, OpInsert, 1, 2, []byte("torn-record-payload"))
	buf = StampTxn(buf, off, 2)
	if _, err := m.AppendSync(0, buf); !errors.Is(err, chaos.ErrCrashed) {
		t.Fatalf("torn append error = %v", err)
	}
	m.Close()
	ch.ClearCrash()
	ch.Disarm(srss.SiteAppendTear)

	m2, err := Reopen(Config{Service: svc, Streams: 1}, m.Directory().MetaID())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	seg := m2.Segments()[0]
	for scan := 0; scan < 3; scan++ {
		if _, err := m2.ScanSegmentFrom(seg, 0, func([]Entry) bool { return true }); err != nil {
			t.Fatalf("scan %d: %v", scan, err)
		}
	}
	if cnt, bytes := m2.TailTruncations(); cnt != 1 || bytes <= 0 {
		t.Fatalf("truncations after 3 scans = %d/%d bytes, want 1/>0", cnt, bytes)
	}
}

// TestDropSegmentFencesScans: DropSegment blocks while a scan holds the
// segment, and later scans of the dropped segment fail with the typed
// ErrSegmentDropped a follower treats as "restart from the directory".
func TestDropSegmentFencesScans(t *testing.T) {
	svc := srss.New(srss.Config{MaxPLogSize: 1 << 20})
	m, err := Open(Config{Service: svc, Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := uint64(1); i <= 3; i++ {
		buf, off := AppendRecord(nil, OpInsert, 1, i, []byte("fenced"))
		buf = StampTxn(buf, off, i)
		if _, err := m.AppendSync(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RotateAll(); err != nil {
		t.Fatal(err)
	}
	seg := m.SealedSegments()[0]

	// Park a scan mid-segment, then drop concurrently: the drop must not
	// complete (delete the backing PLog under the scan) until the scan
	// finishes.
	inScan := make(chan struct{})
	unblock := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		_, err := m.ScanSegmentFrom(seg, 0, func([]Entry) bool {
			inScan <- struct{}{}
			<-unblock
			return false // stop after the first record
		})
		scanDone <- err
	}()
	<-inScan
	dropDone := make(chan error, 1)
	go func() { dropDone <- m.DropSegment(seg) }()
	select {
	case err := <-dropDone:
		t.Fatalf("drop completed under an in-progress scan: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(unblock)
	if err := <-scanDone; err != nil {
		t.Fatalf("fenced scan: %v", err)
	}
	if err := <-dropDone; err != nil {
		t.Fatalf("drop after scan release: %v", err)
	}

	// The segment is gone: scans fail typed, and the count stays clean.
	if _, err := m.ScanSegmentFrom(seg, 0, func([]Entry) bool { return true }); !errors.Is(err, ErrSegmentDropped) {
		t.Fatalf("scan of dropped segment: %v, want ErrSegmentDropped", err)
	}
	if cnt, _ := m.TailTruncations(); cnt != 0 {
		t.Fatalf("drop fencing counted %d truncations, want 0", cnt)
	}
}
