// Crash-recovery torture harness (ISSUE 2 tentpole): a seeded random
// workload runs under a chaos fault schedule; every injected crash is
// followed by recovery and a diff against an in-memory oracle. Any failure
// reproduces from its seed:
//
//	CHAOS_SEED=17 go test ./internal/chaos -run Torture -count=1 -v
//
// The harness lives in package chaos_test because it drives the full stack
// (core -> wal -> srss), all of which import chaos.
package chaos_test

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"hiengine/internal/chaos"
	"hiengine/internal/core"
	"hiengine/internal/srss"
)

// tortureIterations is the number of seeds run; each seed is an independent
// lifetime of workloads, crashes and recoveries.
const tortureIterations = 50

// crashy reports whether err means "the process just died" in the fault
// model: a chaos crash latch, the engine's fail-stop latch, or total
// storage unavailability.
func crashy(err error) bool {
	return errors.Is(err, chaos.ErrCrashed) ||
		errors.Is(err, core.ErrDurabilityLost) ||
		errors.Is(err, srss.ErrNoHealthyNodes)
}

// oracle mirrors the acknowledged database state. Keys whose last write
// ended in a crash are indeterminate: the commit may or may not have become
// durable before the process died, so either the previous or the attempted
// state is acceptable after recovery -- for the two keys of a transfer, the
// same one for both.
type oracle struct {
	committed     map[int64]int64 // key -> balance of acknowledged state
	indeterminate map[int64]write // key -> the write a crash left in doubt
}

// write is what a transaction tried to leave at a key: a balance, or no row.
type write struct {
	bal int64
	del bool
}

func newOracle() *oracle {
	return &oracle{committed: map[int64]int64{}, indeterminate: map[int64]write{}}
}

// set makes w the acknowledged state of key.
func (o *oracle) set(key int64, w write) {
	if w.del {
		delete(o.committed, key)
	} else {
		o.committed[key] = w.bal
	}
}

// Transfers run over pairs of keys above the single-key space: a pair's two
// rows are inserted, moved between and deleted together, and while they exist
// their balances sum to pairSum.
const (
	keySpace = 64
	pairs    = 8
	pairSum  = 1_000_000
)

// pairOf returns the two keys of pair p.
func pairOf(p int) [2]int64 { return [2]int64{keySpace + 2*int64(p), keySpace + 2*int64(p) + 1} }

func tortureSchema() *core.Schema {
	return &core.Schema{
		Name: "accounts",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt},
			{Name: "balance", Kind: core.KindInt},
		},
		Indexes: []core.IndexDef{{Name: "pk", Columns: []int{0}, Unique: true}},
	}
}

func TestTorture(t *testing.T) {
	base := uint64(0xC0FFEE)
	iters := tortureIterations
	if s, ok := chaos.SeedFromEnv(); ok {
		base = s
		iters = 1 // reproduce exactly one seed
	}
	if v := os.Getenv("TORTURE_ITERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			iters = n
		}
	}
	for i := 0; i < iters; i++ {
		seed := base + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tortureOne(t, seed)
		})
	}
}

func tortureOne(t *testing.T, seed uint64) {
	ch := chaos.New(seed)
	rules := []chaos.Rule{
		{Site: srss.SiteAppendTear, Action: chaos.Tear, Prob: 0.02},
		{Site: srss.SiteAppendAfter, Action: chaos.Crash, Prob: 0.005},
		{Site: "wal.flush.before_append", Action: chaos.Crash, Prob: 0.01},
		{Site: "wal.flush.after_append", Action: chaos.Crash, Prob: 0.01},
		{Site: core.SiteCommitBegin, Action: chaos.Crash, Prob: 0.005},
		{Site: core.SiteCheckpointMid, Action: chaos.Crash, Prob: 0.05},
		{Site: srss.SiteRead, Action: chaos.Delay, Prob: 0.02, Delay: 50 * time.Microsecond},
	}

	svc := srss.New(srss.Config{ComputeNodes: 6, Chaos: ch})
	name := fmt.Sprintf("torture-%d", seed)
	cfg := core.Config{
		Name:        name,
		Service:     svc,
		Workers:     2,
		LogStreams:  1,
		SegmentSize: 16 << 10,
	}
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tbl, err := e.CreateTable(tortureSchema())
	if err != nil {
		t.Fatalf("create table: %v", err)
	}
	// Arm the schedule only once the database is live: crashes during the
	// very first bootstrap (before the well-known manifest name exists) have
	// nothing to recover and are covered by dedicated unit tests instead.
	for _, r := range rules {
		ch.Arm(r)
	}

	rnd := ch.Rand("torture.workload")
	o := newOracle()
	failed := map[int]bool{} // currently-failed compute nodes
	crashes, repairs := 0, 0
	// Each engine counts svc's torn appends in its own registry while it is
	// open: recoverAndDiff adds up the closed ones'.
	var torn int64

	const ops = 400
	for op := 0; op < ops; op++ {
		// Fault-environment actions, drawn from the same seeded stream.
		switch rnd.Intn(40) {
		case 0: // fail a compute node (cap 2 so placement can still succeed)
			if len(failed) < 2 {
				id := rnd.Intn(6)
				if !failed[id] {
					svc.ComputeNode(id).Fail()
					failed[id] = true
				}
			}
		case 1: // heal one failed node
			for id := range failed {
				svc.ComputeNode(id).Heal()
				delete(failed, id)
				break
			}
		case 2: // background repair sweep
			if n, _ := svc.RepairOnce(); n > 0 {
				repairs += n
			}
		case 3: // checkpoint (may crash at core.checkpoint.mid)
			if _, cerr := e.Checkpoint(); cerr != nil {
				if !crashy(cerr) {
					t.Fatalf("op %d: checkpoint: %v", op, cerr)
				}
				e, tbl = recoverAndDiff(t, ch, svc, cfg, o, &crashes, &torn, e, rules)
			}
		}

		// One op in four is a two-key transfer, the rest write one key.
		var keys []int64
		if rnd.Intn(4) == 0 {
			p := pairOf(rnd.Intn(pairs))
			keys = p[:]
		} else {
			keys = []int64{int64(rnd.Intn(keySpace))}
		}
		bal := int64(rnd.Intn(pairSum))
		del := rnd.Intn(10) == 0

		tx, berr := e.Begin(0)
		if berr != nil {
			if !crashy(berr) {
				t.Fatalf("op %d: begin: %v", op, berr)
			}
			e, tbl = recoverAndDiff(t, ch, svc, cfg, o, &crashes, &torn, e, rules)
			continue
		}
		writes, werr := writeKeys(tx, tbl, keys, bal, del)
		if werr != nil {
			_ = tx.Abort()
			// Conflicts/duplicates can't happen single-threaded; anything
			// else non-crashy is a real bug.
			if !crashy(werr) {
				t.Fatalf("op %d: write keys %v: %v", op, keys, werr)
			}
			e, tbl = recoverAndDiff(t, ch, svc, cfg, o, &crashes, &torn, e, rules)
			continue
		}
		if writes == nil {
			_ = tx.Abort() // nothing to write
			continue
		}
		cerr := tx.Commit()
		switch {
		case cerr == nil:
			for i, k := range keys {
				o.set(k, writes[i])
				delete(o.indeterminate, k)
			}
		case crashy(cerr):
			// Ambiguous: the writes may or may not have reached the log
			// before the crash. Either outcome is acceptable, all or none.
			for i, k := range keys {
				o.indeterminate[k] = writes[i]
			}
			e, tbl = recoverAndDiff(t, ch, svc, cfg, o, &crashes, &torn, e, rules)
		default:
			t.Fatalf("op %d: commit keys %v: %v", op, keys, cerr)
		}
	}

	// Final verification pass; leave the schedule disarmed so Close runs
	// on clean hardware.
	e, tbl = recoverAndDiff(t, ch, svc, cfg, o, &crashes, &torn, e, rules)
	_ = tbl
	for _, r := range rules {
		ch.Disarm(r.Site)
	}
	e.Close()
	torn += e.Obs().Counter("srss.torn_appends").Load()
	t.Logf("seed %d: %d crashes, %d replicas repaired, %d live keys, %d torn appends",
		seed, crashes, repairs, len(o.committed), torn)
}

// writeKeys writes keys in tx and returns what it wrote at each, nil when
// there was nothing to write. One key is deleted, updated to bal or inserted
// at bal. A pair is deleted, inserted with balances bal and pairSum-bal, or
// has bal moved, modulo pairSum, from its first row to its second.
func writeKeys(tx *core.Txn, tbl *core.Table, keys []int64, bal int64, del bool) ([]write, error) {
	rids := make([]core.RID, len(keys))
	rows := make([]core.Row, len(keys))
	found := 0
	for i, k := range keys {
		rid, row, err := tx.GetByKey(tbl, 0, core.I(k))
		switch {
		case err == nil:
			rids[i], rows[i] = rid, row
			found++
		case !errors.Is(err, core.ErrNotFound):
			return nil, err
		}
	}
	if found != 0 && found != len(keys) {
		return nil, fmt.Errorf("transfer pair %v holds %d of its rows", keys, found)
	}
	writes := make([]write, len(keys))
	switch {
	case del && found == 0:
		return nil, nil
	case del:
		for i := range keys {
			writes[i].del = true
		}
	case found == 0 || len(keys) == 1:
		writes[0].bal = bal
		if len(keys) == 2 {
			writes[1].bal = pairSum - bal
		}
	default:
		a, b := rows[0][1].Int(), rows[1][1].Int()
		d := bal % (a + 1)
		writes[0].bal, writes[1].bal = a-d, b+d
	}
	for i, k := range keys {
		var err error
		switch {
		case writes[i].del:
			err = tx.Delete(tbl, rids[i])
		case found == 0:
			_, err = tx.Insert(tbl, core.Row{core.I(k), core.I(writes[i].bal)})
		default:
			err = tx.Update(tbl, rids[i], core.Row{core.I(k), core.I(writes[i].bal)})
		}
		if err != nil {
			return nil, err
		}
	}
	return writes, nil
}

// recoverAndDiff models a process restart: close the dead engine, clear the
// crash latch, heal storage redundancy, recover from the manifest, and diff
// the visible state against the oracle. Indeterminate keys (in-flight at a
// crash) are resolved to whatever recovery produced; determinate keys must
// match exactly. Returns the recovered engine ready for more traffic. It adds
// the dead engine's torn appends to torn.
func recoverAndDiff(t *testing.T, ch *chaos.Engine, svc *srss.Service, cfg core.Config,
	o *oracle, crashes *int, torn *int64, dead *core.Engine, rules []chaos.Rule) (*core.Engine, *core.Table) {
	t.Helper()
	*crashes++
	// A restart quiesces the fault schedule: the armed rules model faults in
	// the crashed process, and recovery must run clean or every recovery
	// would cascade into the next crash. Hit counters keep advancing, so the
	// schedule stays a pure function of the seed when re-armed below.
	for _, r := range rules {
		ch.Disarm(r.Site)
	}
	ch.ClearCrash()
	dead.Close()
	*torn += dead.Obs().Counter("srss.torn_appends").Load()
	// Repair degraded PLogs before recovery reads them (the repairer would
	// normally have been running all along); failed nodes may still be
	// down, which repair tolerates when spares exist.
	_, _ = svc.RepairOnce()
	e, stats, err := core.RecoverByName(cfg, core.RecoverOptions{ReplayThreads: 2})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	_ = stats
	tbl, err := e.Table("accounts")
	if err != nil {
		t.Fatalf("recovered engine lost the table: %v", err)
	}
	checkIndexes(t, e, tbl)
	tx, err := e.Begin(0)
	if err != nil {
		t.Fatalf("begin on recovered engine: %v", err)
	}
	recovered := map[int64]write{}
	for key := int64(0); key < keySpace+2*pairs; key++ {
		_, row, gerr := tx.GetByKey(tbl, 0, core.I(key))
		switch {
		case gerr == nil:
			recovered[key] = write{bal: row[1].Int()}
		case errors.Is(gerr, core.ErrNotFound):
			recovered[key] = write{del: true}
		default:
			t.Fatalf("key %d: read after recovery: %v", key, gerr)
		}
	}
	// An indeterminate key recovers either its acknowledged state or the
	// write in doubt, and the keys of one transaction -- the two of a
	// transfer -- recover the same one of the two.
	var kept, applied []int64
	for key, attempt := range o.indeterminate {
		bal, exists := o.committed[key]
		switch got, prior := recovered[key], (write{bal: bal, del: !exists}); {
		case got == prior && got == attempt:
		case got == prior:
			kept = append(kept, key)
		case got == attempt:
			applied = append(applied, key)
			o.set(key, attempt)
		default:
			t.Fatalf("key %d (indeterminate): recovered %+v, neither the acknowledged %+v nor the attempted %+v", key, got, prior, attempt)
		}
		delete(o.indeterminate, key)
	}
	if len(kept) > 0 && len(applied) > 0 {
		t.Fatalf("a transaction in doubt recovered in part: keys %v as before it, %v as it wrote them", kept, applied)
	}
	for p := 0; p < pairs; p++ {
		k := pairOf(p)
		a, b := recovered[k[0]], recovered[k[1]]
		if a.del != b.del || !a.del && a.bal+b.bal != pairSum {
			t.Fatalf("pair %v recovered as %+v and %+v: not both rows summing to %d, nor neither", k, a, b, pairSum)
		}
	}
	for key, got := range recovered {
		want, exists := o.committed[key]
		switch {
		case !got.del && !exists:
			t.Fatalf("key %d: present after recovery, oracle says deleted/absent (balance %d)", key, got.bal)
		case !got.del && got.bal != want:
			t.Fatalf("key %d: balance %d after recovery, oracle says %d", key, got.bal, want)
		case got.del && exists:
			t.Fatalf("key %d: lost after recovery, oracle says balance %d", key, want)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("verify-txn commit: %v", err)
	}
	for _, r := range rules {
		ch.Arm(r)
	}
	return e, tbl
}

// checkIndexes checks a just-recovered table's indexes against its rows: the
// (key, RID) pairs each index holds are exactly the keys of the rows read
// back, one per row.
func checkIndexes(t *testing.T, e *core.Engine, tbl *core.Table) {
	t.Helper()
	tx, err := e.Begin(0)
	if err != nil {
		t.Fatalf("begin on recovered engine: %v", err)
	}
	defer tx.Abort()
	for i, def := range tbl.Schema.Indexes {
		got := map[string]core.RID{}
		if err := tbl.Index(i).Scan(nil, nil, func(k []byte, rid uint64) bool {
			got[string(k)] = core.RID(rid)
			return true
		}); err != nil {
			t.Fatalf("index %s: %v", def.Name, err)
		}
		rows := 0
		tbl.Rows().Range(func(rid core.RID, _ *core.Version) bool {
			row, err := tx.Get(tbl, rid)
			if err != nil {
				t.Fatalf("rid %v: read after recovery: %v", rid, err)
			}
			vals := make([]core.Value, len(def.Columns))
			for j, c := range def.Columns {
				vals[j] = row[c]
			}
			k := core.EncodeKey(nil, vals...)
			if !def.Unique {
				k = core.EncodeRIDSuffix(k, uint64(rid))
			}
			if r, ok := got[string(k)]; !ok || r != rid {
				t.Fatalf("index %s: the key of row %v (%v) maps to %v (present %v)", def.Name, rid, row, r, ok)
			}
			rows++
			return true
		})
		if rows != len(got) {
			t.Fatalf("index %s holds %d keys for %d rows", def.Name, len(got), rows)
		}
	}
}
