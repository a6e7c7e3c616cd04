package sqlfront

import (
	"errors"
	"fmt"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
)

// RowBuf is the sink a SELECT bound for the wire writes into: N result rows
// in wire form, each the core.EncodeRow encoding of the projected columns,
// back to back. The select core splices those bytes straight out of the
// stored row, so a row is never decoded on its way to a socket. An
// in-process SELECT has no sink: it decodes the projected columns straight
// out of the stored row into Result.Rows (core.RowArena.AppendRow).
type RowBuf struct {
	Data []byte
	N    int
}

// selectPlan is a compiled SELECT: every name resolved to a position at
// compile time, shared through the plan cache. It is the one select core:
// Exec, ExecEncoded and a RowStream all drive it through a selectRun.
type selectPlan struct {
	ti    *tableInfo
	pl    plan
	cols  []string // projected column names; nil for SELECT *
	proj  []int    // their positions; nil for SELECT *
	limit int      // < 0: no LIMIT clause
}

func (f *Frontend) compileSelect(st *selectStmt) (*selectPlan, error) {
	ti, err := f.tableInfo(st.table)
	if err != nil {
		return nil, err
	}
	pl, err := buildPlan(ti.schema, st.where)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{ti: ti, pl: pl, cols: st.cols, limit: st.limit}
	if st.cols != nil {
		p.proj = make([]int, len(st.cols))
		for i, c := range st.cols {
			if p.proj[i] = ti.schema.ColumnIndex(c); p.proj[i] < 0 {
				return nil, fmt.Errorf("sqlfront: unknown column %q", c)
			}
		}
	}
	return p, nil
}

// selectRun is one execution of a selectPlan: the per-row state of the scan
// callback. A session reuses one across its statements; a stream owns one
// across its pages.
type selectRun struct {
	p    *selectPlan
	args []core.Value
	// The rows go to sink in wire form or, when it is nil, to out decoded.
	sink *RowBuf
	out  *core.RowArena
	sent int   // rows emitted so far, for LIMIT
	err  error // a row that could not be read; ends the scan

	// Scratch that outlives one execution when the selectRun does.
	view core.RowView
	key  []core.Value // the bound index prefix
	// from..to is the index range left to scan: the prefix's keys, less
	// what a stream's pages visited. A full page puts its last key's
	// successor in resume, which becomes from once the scan returns.
	from, to, resume []byte
	// enc holds, back to back, the rows an engine without raw reads handed
	// out decoded, encoded again (encode).
	enc []byte
	// get and keyed are the engine callbacks, bound to this selectRun when
	// it starts first: a closure or method value made per run would be an
	// allocation each time.
	get   func(payload []byte) error
	keyed func(key, payload []byte) bool

	// maxRows and maxBytes bound a stream's page in sink (0: a statement's
	// result, unbounded); paused says a full page stopped the scan.
	maxRows, maxBytes int
	paused            bool
}

// maxEnc is the size past which encode starts a new buffer.
const maxEnc = 64 << 10

// start binds the run to p and args: the index prefix, and for a scan the
// key range it spans.
func (r *selectRun) start(p *selectPlan, args []core.Value) {
	r.p, r.args, r.sent, r.err = p, args, 0, nil
	r.key = bindAll(r.key[:0], p.pl.prefix, args)
	if !p.pl.point {
		r.from = core.EncodeKey(r.from[:0], r.key...)
		r.to = core.AppendKeySuccessor(r.to[:0], r.from)
	}
	if r.get == nil {
		r.get = func(payload []byte) error {
			r.row(payload)
			return nil
		}
		r.keyed = r.entry
	}
}

// row is the scan callback: filter on the residual predicate and splice the
// projection, both against the encoded payload. A raw read's payload is
// immutable (engineapi.RawReader), so a row decoded into out aliases it.
func (r *selectRun) row(payload []byte) bool {
	if _, r.err = r.view.Reset(payload); r.err != nil {
		return false
	}
	for _, c := range r.p.pl.residual {
		if !r.view.ColEqual(c.pos, bind(c.rhs, r.args)) {
			return true
		}
	}
	if r.out != nil {
		r.err = r.out.AppendRow(&r.view, r.p.proj)
	} else if r.sink.Data, r.err = r.view.AppendProjection(r.sink.Data, r.p.proj); r.err == nil {
		r.sink.N++
	}
	if r.err != nil {
		return false
	}
	r.sent++
	if r.p.limit >= 0 && r.sent >= r.p.limit {
		return false
	}
	if r.maxRows > 0 && (r.sink.N >= r.maxRows || r.maxBytes > 0 && len(r.sink.Data) >= r.maxBytes) {
		r.paused = true
		return false
	}
	return true
}

// entry is the range scan's callback: row's, recording the resume key, the
// entry's successor, when the row fills the page.
func (r *selectRun) entry(key, payload []byte) bool {
	ok := r.row(payload)
	if r.paused {
		r.resume = append(append(r.resume[:0], key...), 0)
	}
	return ok
}

// encode appends row's encoding to enc and returns it. enc is only ever
// appended to, so a payload handed out, which a result may alias, is never
// rewritten; a buffer past maxEnc is left to whoever still holds one.
func (r *selectRun) encode(row core.Row) []byte {
	if len(r.enc) > maxEnc {
		r.enc = nil
	}
	start := len(r.enc)
	r.enc = core.EncodeRow(r.enc, row)
	return r.enc[start:len(r.enc):len(r.enc)]
}

// run drives the plan under tx: its point lookup, or its scan over what is
// left of [from, to). A statement runs once; a stream once a page.
func (r *selectRun) run(tx engineapi.Txn) error {
	p := r.p
	if p.limit == 0 {
		return nil // LIMIT 0 is a real limit: fetch nothing at all
	}
	var err error
	if p.pl.point {
		err = r.lookup(tx)
		if errors.Is(err, engineapi.ErrNotFound) {
			err = nil
		}
		r.paused = false // one lookup: a stream's first page is its last
	} else {
		err = r.scan(tx)
	}
	if r.err != nil {
		return r.err
	}
	return err
}

// lookup reads the plan's one row, as the engine stores it when it hands
// that out (engineapi.RawReader), encoded again when it does not.
func (r *selectRun) lookup(tx engineapi.Txn) error {
	name, idx := r.p.ti.schema.Name, r.p.pl.idx
	if rr, ok := tx.(engineapi.RawReader); ok {
		return rr.GetByKeyRaw(name, idx, r.key, r.get)
	}
	row, err := tx.GetByKey(name, idx, r.key...)
	if err == nil {
		r.row(r.encode(row))
	}
	return err
}

// scan visits the plan's index entries left in [from, to) through the
// engine's range scan (engineapi.RangeReader), moving from past a full page.
// An engine without one gets its prefix scan, rows encoded again, for a
// result that cannot pause: no page could resume it.
func (r *selectRun) scan(tx engineapi.Txn) error {
	name, idx := r.p.ti.schema.Name, r.p.pl.idx
	if rr, ok := tx.(engineapi.RangeReader); ok {
		err := rr.ScanRangeRaw(name, idx, r.from, r.to, r.keyed)
		if r.paused {
			r.from, r.resume = r.resume, r.from
		}
		return err
	}
	if r.maxRows > 0 {
		return errNoRanges
	}
	return tx.ScanPrefix(name, idx, r.key, func(row core.Row) bool {
		return r.row(r.encode(row))
	})
}

// exec runs the SELECT as one statement of s, appending its rows to sink,
// or with a nil sink to out.
func (p *selectPlan) exec(s *Session, args []core.Value, sink *RowBuf, out *core.RowArena) error {
	tx, auto, err := s.txnFor(p.ti)
	if err != nil {
		return err
	}
	r := &s.sel
	r.start(p, args)
	r.sink, r.out = sink, out
	err = r.run(tx)
	r.args, r.sink, r.out = nil, nil, nil
	if err != nil {
		s.opFailed(tx, auto, err)
		return err
	}
	if auto {
		return s.commitSync(tx)
	}
	return nil
}
