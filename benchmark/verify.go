package main

import (
	"fmt"
	"sync"

	"hiengine/internal/core"
)

// sampleKeys is how many seeded keys are read back at every check.
const sampleKeys = 1000

// model is what the load generator knows must be in the database: the
// version of every preloaded row (bumped when an update is acked) and which
// ops' inserts were acked. Clients write disjoint elements of ver and their
// own entry of ops, so the hot path takes no lock.
type model struct {
	seed    uint64
	schema  schema
	rows    int      // preloaded rows
	perOp   int      // rows one acked op inserts (0 on scan_wire)
	ver     []uint32 // by preload key (scanID on scan_wire)
	ops     [nClients]int
	mu      sync.Mutex
	failed  [nClients]map[int]bool
	firstEr error
}

func newModel(seed uint64, sch schema, rows, insertsPerOp int) *model {
	return &model{seed: seed, schema: sch, rows: rows, perOp: insertsPerOp, ver: make([]uint32, rows)}
}

// opDone notes that client c's op j ran (acked unless opFailed follows).
func (m *model) opDone(c, j int) {
	if j >= m.ops[c] {
		m.ops[c] = j + 1
	}
}

// opFailed notes that client c's op j was not acked. It is never expected:
// clients share no keys and nothing is refused at two clients.
func (m *model) opFailed(c, j int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed[c] == nil {
		m.failed[c] = make(map[int]bool)
	}
	m.failed[c][j] = true
	if m.firstEr == nil {
		m.firstEr = fmt.Errorf("client %d op %d: %w", c, j, err)
	}
	m.opDone(c, j)
}

func (m *model) acked(c, j int) bool { return j < m.ops[c] && !m.failed[c][j] }

// ackedInserts is the number of rows acked ops added to the preload.
func (m *model) ackedInserts() int64 {
	var n int64
	for c := range m.ops {
		n += int64(m.ops[c]-len(m.failed[c])) * int64(m.perOp)
	}
	return n
}

// insertID is the key of the i-th row client c's op j inserted.
func (m *model) insertID(c, j, i int) int64 {
	return insertBase(c) + int64(j)*int64(m.perOp) + int64(i)
}

// expect is the row key `id` must read back as.
func (m *model) expect(id int64) core.Row {
	var ver uint32
	if id < int64(m.rows) {
		ver = m.ver[id]
	}
	return m.schema.row(m.seed, id, ver)
}

// verify checks an engine against the model: the table holds exactly the
// preload plus the acked inserts, and sampleKeys seeded keys -- preloaded
// rows at their last acked version and acked inserted rows -- read back
// value for value. It is run on the live engine before the crash and on
// every recovered engine.
func (m *model) verify(eng *core.Engine) error {
	tbl, err := eng.Table(m.schema.table())
	if err != nil {
		return err
	}
	if got, want := tbl.LiveRows(), int64(m.rows)+m.ackedInserts(); got != want {
		return fmt.Errorf("verify: table holds %d rows, want %d (preload %d + acked inserts)", got, want, m.rows)
	}
	tx, err := eng.Begin(0)
	if err != nil {
		return err
	}
	defer tx.Abort()
	r := rng{s: m.seed ^ 0x5eed}
	for i := 0; i < sampleKeys; i++ {
		id := r.intn(int64(m.rows))
		if m.perOp > 0 && i%2 == 1 {
			c := int(r.intn(nClients))
			if m.ops[c] > 0 {
				if j := int(r.intn(int64(m.ops[c]))); m.acked(c, j) {
					id = m.insertID(c, j, int(r.intn(int64(m.perOp))))
				}
			}
		}
		_, got, err := tx.GetByKey(tbl, 0, m.schema.key(id)...)
		if err != nil {
			return fmt.Errorf("verify: key %d: %w", id, err)
		}
		if err := rowsEqual(got, m.expect(id)); err != nil {
			return fmt.Errorf("verify: key %d: %w", id, err)
		}
	}
	return nil
}

func rowsEqual(got, want core.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("row has %d columns, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("column %d reads %v, want %v (lost or stale write)", i, got[i], want[i])
		}
	}
	return nil
}

// checkScan checks one prefix scan of group grp projected to (id, c): it
// must be exactly the group's rows in key order, and row wantID must carry
// the text this client just wrote.
func checkScan(rows []core.Row, wantID int64, wantText string) error {
	if len(rows) != groupRows {
		return fmt.Errorf("scan returned %d rows, want %d", len(rows), groupRows)
	}
	for i, row := range rows {
		if len(row) != 2 || row[0].Int() != int64(i) {
			return fmt.Errorf("scan row %d is %v, want id %d", i, row, i)
		}
	}
	if got := rows[wantID][1].Str(); got != wantText {
		return fmt.Errorf("scan row %d reads %q, want the text just written %q", wantID, got, wantText)
	}
	return nil
}
