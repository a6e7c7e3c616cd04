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
	view    core.RowView
	key     []core.Value         // the bound index prefix
	adapter engineapi.RawAdapter // for engines without raw reads
	// get and scan are the engine callbacks, bound to this selectRun on its
	// first run: a closure or method value made per run would be an
	// allocation each time.
	get  func(payload []byte) error
	scan func(rid core.RID, payload []byte) bool

	// maxRows and maxBytes bound a stream's page in sink (0: a statement's
	// result, unbounded); paused says a full page stopped the scan.
	maxRows, maxBytes int
	paused            bool
}

// row is the scan callback: filter on the residual predicate and splice the
// projection, both against the encoded payload. A raw read's payload is
// immutable (engineapi.RawReader), so a row decoded into out aliases it.
func (r *selectRun) row(_ core.RID, payload []byte) bool {
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

// run drives the plan's point lookup or prefix scan under tx.
func (r *selectRun) run(tx engineapi.Txn) error {
	p := r.p
	if p.limit == 0 {
		return nil // LIMIT 0 is a real limit: fetch nothing at all
	}
	if r.scan == nil {
		r.scan = r.row
		r.get = func(payload []byte) error {
			r.row(0, payload)
			return nil
		}
	}
	raw := engineapi.Raw(tx, &r.adapter)
	r.key = bindAll(r.key[:0], p.pl.prefix, r.args)
	var err error
	if p.pl.point {
		err = raw.GetByKeyRaw(p.ti.schema.Name, p.pl.idx, r.key, r.get)
		if errors.Is(err, engineapi.ErrNotFound) {
			err = nil
		}
	} else {
		err = raw.ScanPrefixRaw(p.ti.schema.Name, p.pl.idx, r.key, r.scan)
	}
	if r.err != nil {
		return r.err
	}
	return err
}

// exec runs the SELECT as one statement of s, appending its rows to sink,
// or with a nil sink to out.
func (p *selectPlan) exec(s *Session, args []core.Value, sink *RowBuf, out *core.RowArena) error {
	tx, auto, err := s.txnFor(p.ti)
	if err != nil {
		return err
	}
	r := &s.sel
	r.p, r.args, r.sink, r.out, r.sent, r.err = p, args, sink, out, 0, nil
	err = r.run(tx)
	r.args, r.sink, r.out = nil, nil, nil
	if err != nil {
		s.opFailed(tx, auto, err)
		return err
	}
	if auto {
		return s.commitAuto(tx)
	}
	return nil
}
