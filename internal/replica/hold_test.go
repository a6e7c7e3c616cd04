package replica_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/srss"
)

// holdRows is the row count of the hold test's table: a few 64 KiB segments.
const holdRows = 3000

// loadKV creates kv through the node at addr, fills it in transactions of
// 100, then updates every row and deletes every seventh, one transaction
// each, and runs GC: the segments the fill wrote are dead but for their
// headers.
func loadKV(t *testing.T, e *core.Engine, addr string) {
	t.Helper()
	cl, err := client.New(client.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("CREATE TABLE kv (k INT, v TEXT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	tbl, err := e.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	write := func(fn func(tx *core.Txn) error) {
		t.Helper()
		tx, err := e.Begin(3)
		if err == nil {
			if err = fn(tx); err == nil {
				err = tx.Commit()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < holdRows; i += 100 {
		write(func(tx *core.Txn) error {
			for k := i; k < i+100; k++ {
				if _, err := tx.Insert(tbl, core.Row{core.I(k), core.S(fmt.Sprintf("first-%d", k))}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for k := int64(0); k < holdRows; k++ {
		write(func(tx *core.Txn) error {
			rid, _, err := tx.GetByKey(tbl, 0, core.I(k))
			if err != nil {
				return err
			}
			if k%7 == 0 {
				return tx.Delete(tbl, rid)
			}
			return tx.Update(tbl, rid, core.Row{core.I(k), core.S(fmt.Sprintf("second-%d", k))})
		})
	}
	e.RunGC()
}

// kvRows reads kv off e.
func kvRows(t *testing.T, e *core.Engine) map[int64]string {
	t.Helper()
	tbl, err := e.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	out := map[int64]string{}
	if err := tx.ScanKey(tbl, 0, nil, nil, func(_ core.RID, row core.Row) bool {
		out[row[0].Int()] = row[1].Str()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// plogs lists svc's compute-tier PLogs.
func plogs(svc *srss.Service) map[srss.PLogID]bool {
	out := map[srss.PLogID]bool{}
	for _, id := range svc.List(srss.TierCompute) {
		out[id] = true
	}
	return out
}

// eventually polls cond for up to 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %s", what)
		}
	}
}

// TestFollowerHoldsCompaction: once a follower attaches, the primary holds
// its log compaction -- the same load compacts a primary no follower follows
// -- while its checkpoints go on, and the follower ends with the primary's
// rows, deletes included. The checkpoint images the primary's checkpoints
// supersede vanish from its PLog list, and the follower drops its mirrors of
// them.
func TestFollowerHoldsCompaction(t *testing.T) {
	alone, aloneAddr := startPrimary(t)
	loadKV(t, alone, aloneAddr)
	eventually(t, "the primary without a follower never compacted", func() bool {
		return alone.Obs().Counter("core.compactions").Load() > 0
	})

	primary, addr := startPrimary(t)
	follower, rep, _ := startReplica(t, addr)
	if _, err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	loadKV(t, primary, addr)
	if !follower.WaitCSN(primary.CurrentCSN(), 10*time.Second) {
		t.Fatalf("follower stuck at CSN %d", follower.AppliedCSN())
	}
	if n := primary.Obs().Counter("core.compactions").Load(); n != 0 {
		t.Fatalf("the primary compacted %d times with a follower attached", n)
	}
	if _, err := primary.CompactFull(); !errors.Is(err, core.ErrCompactionHeld) {
		t.Fatalf("CompactFull with a follower attached: %v, want ErrCompactionHeld", err)
	}
	if got, want := kvRows(t, rep.Engine()), kvRows(t, primary); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("follower has %d rows, the primary %d", len(got), len(want))
	}

	mirror := rep.Engine().Service()
	before := plogs(primary.Service())
	eventually(t, "the follower never mirrored the primary's PLogs", func() bool {
		have := plogs(mirror)
		for id := range before {
			if !have[id] {
				return false
			}
		}
		return true
	})
	for i := 0; i < 2; i++ {
		if _, err := primary.Checkpoint(); err != nil {
			t.Fatalf("checkpoint with a follower attached: %v", err)
		}
	}
	now := plogs(primary.Service())
	var gone []srss.PLogID
	for id := range before {
		if !now[id] {
			gone = append(gone, id)
		}
	}
	if len(gone) == 0 {
		t.Fatal("two checkpoints deleted no superseded image")
	}
	eventually(t, "the follower kept mirrors of PLogs the primary deleted", func() bool {
		have := plogs(mirror)
		for _, id := range gone {
			if have[id] {
				return false
			}
		}
		return true
	})
}
