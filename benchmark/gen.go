package main

import "hiengine/internal/core"

// Sizes shared by every workload. The preload is the same 200k rows on
// all four so setup_s is one quantity, not four.
const (
	preloadRows = 200_000
	textLen     = 100 // bytes in the TEXT column
	scanGroups  = 2_000
	groupRows   = 100 // scanGroups * groupRows == preloadRows
	ingestBatch = 128 // INSERTs per ingest_recover transaction
	nClients    = 2
)

// rng is splitmix64. The key stream depends on the seed alone -- not on
// the Go release, as math/rand's algorithms may.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// clientRNG derives client c's stream of a workload from the run seed.
func clientRNG(seed uint64, workload string, c int) *rng {
	h := seed*0x9e3779b97f4a7c15 + uint64(c+1)*0xd1b54a32d192ed03
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 0x100000001b3
	}
	return &rng{s: h}
}

// fillerBlock is the constant tail of every TEXT value.
var fillerBlock = func() (b [textLen]byte) {
	const filler = "hiengine-benchmark-row-filler-0123456789abcdefghijklmnopqrstuvwxyz"
	for i := range b {
		b[i] = filler[i%len(filler)]
	}
	return b
}()

// rowText is the TEXT column of row `id` at its ver-th write: 16 hex digits
// that identify (id, ver, seed) followed by constant filler. Any lost,
// stale or misplaced write reads back as a different string.
func rowText(seed uint64, id int64, ver uint32) string {
	b := fillerBlock
	r := rng{s: seed ^ uint64(id)*0x9e3779b97f4a7c15 ^ uint64(ver)<<40}
	x := r.next()
	const hex = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		b[i] = hex[x&15]
		x >>= 4
	}
	return string(b[:])
}

// rowK is the k column of row `id` at its ver-th write.
func rowK(seed uint64, id int64, ver uint32) int64 {
	r := rng{s: seed + uint64(id)*31 + uint64(ver)}
	return int64(r.next() >> 1)
}

// benchRowBytes is the column data of one bench row: two INTs and the text.
const benchRowBytes = 8 + 8 + textLen

// scanRowBytes adds the grp column.
const scanRowBytes = 8 + benchRowBytes

// schema is which of the two tables a workload uses: bench, keyed by id, or
// scanb, keyed by (grp, id). Rows of either are numbered by one flat id; on
// scanb that is scanID(grp, id).
type schema int

const (
	benchTable schema = iota
	scanTable
)

const (
	benchDDL = "CREATE TABLE bench (id INT, k INT, c TEXT, PRIMARY KEY(id))"
	scanDDL  = "CREATE TABLE scanb (grp INT, id INT, k INT, c TEXT, PRIMARY KEY(grp, id))"
)

func (s schema) table() string {
	if s == scanTable {
		return "scanb"
	}
	return "bench"
}

func (s schema) ddl() string {
	if s == scanTable {
		return scanDDL
	}
	return benchDDL
}

// row is row `id` at its ver-th write.
func (s schema) row(seed uint64, id int64, ver uint32) core.Row {
	if s == scanTable {
		return scanRow(seed, id/groupRows, id%groupRows, ver)
	}
	return benchRow(seed, id, ver)
}

// key is row `id`'s primary key.
func (s schema) key(id int64) []core.Value {
	if s == scanTable {
		return []core.Value{core.I(id / groupRows), core.I(id % groupRows)}
	}
	return []core.Value{core.I(id)}
}

func benchRow(seed uint64, id int64, ver uint32) core.Row {
	return core.Row{core.I(id), core.I(rowK(seed, id, ver)), core.S(rowText(seed, id, ver))}
}

// scanID flattens (grp, id) to the index used for version tracking.
func scanID(grp, id int64) int64 { return grp*groupRows + id }

func scanRow(seed uint64, grp, id int64, ver uint32) core.Row {
	flat := scanID(grp, id)
	return core.Row{core.I(grp), core.I(id), core.I(rowK(seed, flat, ver)), core.S(rowText(seed, flat, ver))}
}

// oltpOp is one oltp_* transaction's keys: two point reads and an update in
// the client's half of the preload. Its insert goes to the client's next
// fresh key, insertBase(c) + op index.
type oltpOp struct{ read1, read2, upd int64 }

// oltpGen yields client c's op stream. Clients own disjoint halves of the
// preload and disjoint insert ranges, so no two transactions ever conflict.
type oltpGen struct {
	r    *rng
	lo   int64 // first preload key of this client
	span int64
}

// insertBase is client c's first fresh key. The stride leaves room for
// any op count this benchmark can be asked to run.
func insertBase(c int) int64 { return preloadRows + int64(c)<<32 }

// Both oltp workloads draw the same stream, so they run the identical ops.
func newOLTPGen(seed uint64, c, rows int) *oltpGen {
	span := int64(rows / nClients)
	return &oltpGen{r: clientRNG(seed, "oltp", c), lo: int64(c) * span, span: span}
}

func (g *oltpGen) next() oltpOp {
	return oltpOp{
		read1: g.lo + g.r.intn(g.span),
		read2: g.lo + g.r.intn(g.span),
		upd:   g.lo + g.r.intn(g.span),
	}
}

// scanOp is one scan_wire op: update row (grp, id), then scan grp. Every
// 10th op scans through the paged cursor API.
type scanOp struct {
	grp, id int64
	cursor  bool
}

type scanGen struct {
	r    *rng
	lo   int64
	span int64
	n    int64
}

func newScanGen(seed uint64, c, groups int) *scanGen {
	span := int64(groups / nClients)
	return &scanGen{r: clientRNG(seed, "scan_wire", c), lo: int64(c) * span, span: span}
}

func (g *scanGen) next() scanOp {
	g.n++
	return scanOp{grp: g.lo + g.r.intn(g.span), id: g.r.intn(groupRows), cursor: g.n%10 == 0}
}

// streamHash folds the first n ops of every client's key stream into one
// FNV-1a value; the determinism test compares it across seeds.
func streamHash(workload string, seed uint64, n int) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v int64) {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(v>>(8*i)))) * 0x100000001b3
		}
	}
	for c := 0; c < nClients; c++ {
		switch workload {
		case "scan_wire":
			g := newScanGen(seed, c, scanGroups)
			for i := 0; i < n; i++ {
				op := g.next()
				mix(op.grp)
				mix(op.id)
			}
		case "ingest_recover":
			for i := 0; i < n; i++ {
				id := insertBase(c) + int64(i)
				mix(id)
				mix(rowK(seed, id, 0))
			}
		default:
			g := newOLTPGen(seed, c, preloadRows)
			for i := 0; i < n; i++ {
				op := g.next()
				mix(op.read1)
				mix(op.read2)
				mix(op.upd)
				mix(insertBase(c) + int64(i))
				mix(rowK(seed, op.upd, 1))
			}
		}
	}
	return h
}
