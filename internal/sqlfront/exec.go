package sqlfront

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/obs"
)

// Errors.
var (
	ErrNoTxn       = errors.New("sqlfront: no open transaction")
	ErrCrossEngine = errors.New("sqlfront: transaction cannot span storage engines")
	ErrBadPlan     = errors.New("sqlfront: no usable index for WHERE clause")
	ErrParamCount  = errors.New("sqlfront: wrong parameter count")
	ErrNoPrepare   = errors.New("sqlfront: engine does not support two-phase commit")
)

// Frontend is the shared SQL layer (Figure 3): one parser/planner in front
// of multiple registered storage engines. Tables are routed to engines by
// their CREATE TABLE ... WITH ENGINE=<name> clause (vertical deployment).
//
// The frontend owns the plan cache: parse/plan/compile for a SQL text is
// done once and shared by every session (Section 3.3 pays that cost at
// Prepare, never per call -- the cache extends the same economics to
// unprepared Exec traffic keyed by SQL text). Catalog DDL (CREATE TABLE,
// engine registration) bumps schemaGen; plans are stamped with the
// generation they compiled against and a mismatched plan is discarded on
// lookup, so a cached plan never outlives its schema or its
// table-to-engine routing.
type Frontend struct {
	mu            sync.RWMutex
	engines       map[string]engineapi.DB
	defaultEngine string
	tables        map[string]*tableInfo

	schemaGen atomic.Uint64
	plans     *planCache
}

type tableInfo struct {
	engine string
	db     engineapi.DB
	schema *core.Schema
}

// NewFrontend builds a frontend with a default engine.
func NewFrontend(defaultName string, db engineapi.DB) *Frontend {
	f := &Frontend{
		engines:       map[string]engineapi.DB{strings.ToLower(defaultName): db},
		defaultEngine: strings.ToLower(defaultName),
		tables:        make(map[string]*tableInfo),
		plans:         newPlanCache(DefaultPlanCacheSize),
	}
	return f
}

// SetPlanCacheSize rebounds the plan cache (entries, not bytes). Existing
// entries are dropped; intended for deployment setup, not steady state.
func (f *Frontend) SetPlanCacheSize(n int) {
	f.mu.Lock()
	f.plans = newPlanCache(n)
	f.mu.Unlock()
	f.schemaGen.Add(1) // stamp outstanding Stmts stale against the new cache
}

// Register adds another storage engine under a name usable in WITH ENGINE=.
// Registration is catalog DDL: it bumps the schema generation so no cached
// plan's engine routing outlives it.
func (f *Frontend) Register(name string, db engineapi.DB) {
	f.mu.Lock()
	f.engines[strings.ToLower(name)] = db
	f.mu.Unlock()
	f.schemaGen.Add(1)
}

// AdoptAll registers tables that already exist inside a registered storage
// engine -- recovered from a manifest, or replayed from a primary's log --
// so statements resolve them without running CREATE TABLE (which would
// attempt a write). It adopts every schema whose name is not yet in the
// catalog and skips the rest. A replica's catalog trails its replayed
// manifest --
// tables created on the primary after bootstrap exist in the engine but
// not the frontend -- so callers re-sync by passing the engine's full
// table list after each catch-up (and before serving writes on
// promotion). Returns the number of tables newly adopted; the schema
// generation is bumped only when that count is nonzero.
func (f *Frontend) AdoptAll(engine string, schemas []*core.Schema) (int, error) {
	engine = strings.ToLower(engine)
	f.mu.Lock()
	defer f.mu.Unlock()
	db, ok := f.engines[engine]
	if !ok {
		return 0, fmt.Errorf("sqlfront: unknown engine %q", engine)
	}
	added := 0
	for _, schema := range schemas {
		if _, dup := f.tables[schema.Name]; dup {
			continue
		}
		f.tables[schema.Name] = &tableInfo{engine: engine, db: db, schema: schema}
		added++
	}
	if added > 0 {
		f.schemaGen.Add(1)
	}
	return added, nil
}

// PlanCacheStats snapshots the plan-cache counters.
func (f *Frontend) PlanCacheStats() PlanCacheStats {
	f.mu.RLock()
	pc := f.plans
	f.mu.RUnlock()
	return PlanCacheStats{
		Size:          pc.size(),
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Evictions:     pc.evictions.Load(),
		Invalidations: pc.invalidations.Load(),
	}
}

// prepare resolves sql to a compiled plan: a cache hit returns the shared
// entry; a miss pays parse+plan+compile once and (for cacheable statement
// kinds) publishes the result. Compile errors are never cached -- a
// statement that fails because its table does not exist yet must
// re-resolve after CREATE TABLE. The generation is captured before
// compiling: if DDL races the compile, the entry is stamped with the older
// generation and discarded on its next lookup (a wasted recompile, never a
// stale execution).
func (f *Frontend) prepare(sql string) (*compiled, bool, error) {
	f.mu.RLock()
	pc := f.plans
	f.mu.RUnlock()
	gen := f.schemaGen.Load()
	if c := pc.get(sql, gen); c != nil {
		return c, true, nil
	}
	st, nParams, err := parse(sql)
	if err != nil {
		return nil, false, err
	}
	c := &compiled{nParams: nParams, gen: gen}
	if sel, ok := st.(*selectStmt); ok {
		c.sel, err = f.compileSelect(sel)
	} else {
		c.fn, err = f.compile(st)
	}
	if tx, ok := st.(*txnStmt); ok {
		c.verb = tx.verb
	}
	if err != nil {
		return nil, false, err
	}
	if cacheable(st) {
		pc.put(sql, c)
	}
	return c, false, nil
}

// cacheable reports whether a statement kind belongs in the plan cache.
// DML and queries are the hot path; transaction verbs compile trivially
// and DDL runs once, so caching them would only dilute the LRU.
func cacheable(st stmt) bool {
	switch st.(type) {
	case *insertStmt, *selectStmt, *updateStmt, *deleteStmt:
		return true
	}
	return false
}

func (f *Frontend) tableInfo(name string) (*tableInfo, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ti, ok := f.tables[name]
	if !ok {
		return nil, fmt.Errorf("sqlfront: unknown table %q", name)
	}
	return ti, nil
}

// Session is one client connection: it holds the open transaction and the
// worker slot it is bound to (the paper binds sessions to worker threads).
type Session struct {
	f      *Frontend
	worker int

	txn       engineapi.Txn
	txnEngine string

	// lastCSN is the session's read-your-writes token: the highest commit
	// sequence number this session has committed at (engines that report
	// one, see engineapi.CSNReporter). Atomic because pipelined commits
	// publish it from the WAL durability callback while the session is
	// already executing its next statement.
	lastCSN atomic.Uint64

	// tr, when non-nil, is the active request trace: Exec brackets the
	// plan-cache and execution stages against it, and transactions opened
	// while it is set carry it through the engine's commit pipeline.
	tr *obs.Trace

	// sel and rows are SELECT scratch reused across statements (a session
	// runs one at a time): the scan state, and the encoded rows Exec decodes
	// Result.Rows from.
	sel  selectRun
	rows RowBuf

	// vals, where and set are what a write statement binds its parameters
	// into -- an INSERT's row or a key, an UPDATE's residual conditions and
	// assignments -- reused across statements: the engine borrows them for
	// the call (see engineapi.Txn).
	vals       []core.Value
	where, set []core.ColValue

	// res is the Result every INSERT, UPDATE and DELETE of the session
	// returns, and every SELECT run through ExecEncoded (see Result): a
	// caller reads Affected or Columns off it and drops it, so one per
	// statement would be an allocation per statement for nothing.
	res Result

	// autoDone and autoCommitted are commitAuto's wait for durability: the
	// channel, and the callback that signals it, made once per session.
	autoDone      chan error
	autoCommitted func(error)
}

// affected returns the session's DML result, reporting n rows.
func (s *Session) affected(n int) *Result {
	s.res = Result{Affected: n}
	return &s.res
}

// LastCSN returns the session's read-your-writes token: the commit sequence
// number of its most recent write commit (0 before the first one).
func (s *Session) LastCSN() uint64 { return s.lastCSN.Load() }

// noteCSN records t's commit CSN as the session token (monotonic max).
func (s *Session) noteCSN(t engineapi.Txn) {
	r, ok := t.(engineapi.CSNReporter)
	if !ok {
		return
	}
	csn := r.CSN()
	if csn == 0 {
		return
	}
	for {
		cur := s.lastCSN.Load()
		if csn <= cur || s.lastCSN.CompareAndSwap(cur, csn) {
			return
		}
	}
}

// commitAuto finishes an auto-commit statement: commit, then record the
// session's read-your-writes token. It waits for durability on the session's
// own channel, through the engine's pipelined commit when it has one, so a
// statement's commit allocates nothing of its own.
func (s *Session) commitAuto(tx engineapi.Txn) error {
	ac, ok := tx.(engineapi.AsyncCommitter)
	if !ok {
		if err := tx.Commit(); err != nil {
			return err
		}
		s.noteCSN(tx)
		return nil
	}
	if s.autoDone == nil {
		done := make(chan error, 1)
		s.autoDone, s.autoCommitted = done, func(err error) { done <- err }
	}
	if err := ac.CommitAsync(s.autoCommitted); err != nil {
		return err
	}
	if err := <-s.autoDone; err != nil {
		return err
	}
	s.noteCSN(tx)
	return nil
}

// SetTrace attaches (or with nil, detaches) the active request trace. An
// already-open engine transaction is retroactively tagged so a trace
// started mid-transaction still attributes its commit stages.
func (s *Session) SetTrace(tr *obs.Trace) {
	s.tr = tr
	if t, ok := s.txn.(engineapi.Traceable); ok && s.txn != nil {
		t.SetTrace(tr)
	}
}

// NewSession opens a session bound to a worker slot.
func (f *Frontend) NewSession(worker int) *Session {
	return &Session{f: f, worker: worker}
}

// SetWorker rebinds the session to a worker slot. The slot is captured
// when a transaction begins, so rebinding is only legal while no
// transaction is open; the network server leases a slot per transaction
// and rebinds the connection's session to the leased slot.
func (s *Session) SetWorker(worker int) {
	if !s.InTxn() {
		s.worker = worker
	}
}

// Result is a statement result. The Result of an INSERT, UPDATE or DELETE,
// and of a SELECT run through ExecEncoded (its rows are in the caller's
// sink), is the session's one, reused: it is valid until the session's next
// statement, and a caller that wants a field for longer copies it out. The
// Result of a SELECT run through Exec, with its rows, is the caller's to
// keep.
type Result struct {
	Rows     []core.Row
	Columns  []string
	Affected int
}

// Exec runs sql through the frontend plan cache: first sight of a SQL text
// pays parse+plan+compile, every later execution (from any session) binds
// parameters straight into the cached plan. A DML statement's Result is the
// session's, valid until its next statement (see Result).
func (s *Session) Exec(sql string, args ...core.Value) (*Result, error) {
	s.tr.Begin(obs.StagePlanCache)
	c, hit, err := s.f.prepare(sql)
	if s.tr != nil {
		s.tr.PlanCache(hit)
		s.tr.End(obs.StagePlanCache)
	}
	if err != nil {
		return nil, err
	}
	return s.execute(c, args, nil)
}

// maxRowScratch bounds what a session's row scratch may retain, so one
// large in-process result does not pin its size for the session's life.
const maxRowScratch = 64 << 10

// execute is the exec stage shared by Exec, Stmt.Exec and Stmt.ExecEncoded.
// A SELECT appends its rows to sink in wire form and leaves Result.Rows
// nil; with a nil sink they go to the session's scratch and are decoded
// from there into Result.Rows, one arena for the whole result.
func (s *Session) execute(c *compiled, args []core.Value, sink *RowBuf) (*Result, error) {
	if c.nParams != len(args) {
		return nil, fmt.Errorf("%w: statement has %d, got %d", ErrParamCount, c.nParams, len(args))
	}
	s.tr.Begin(obs.StageExec)
	defer s.tr.End(obs.StageExec)
	if c.sel == nil {
		return c.fn(s, args)
	}
	if sink != nil {
		if err := c.sel.exec(s, args, sink); err != nil {
			return nil, err
		}
		s.res = Result{Columns: c.sel.cols}
		return &s.res, nil
	}
	s.rows = RowBuf{Data: s.rows.Data[:0]}
	err := c.sel.exec(s, args, &s.rows)
	var rows []core.Row
	if err == nil {
		rows, _, err = core.DecodeRows(s.rows.Data, s.rows.N)
	}
	if cap(s.rows.Data) > maxRowScratch {
		s.rows.Data = nil
	}
	if err != nil {
		return nil, err
	}
	return &Result{Columns: c.sel.cols, Rows: rows}, nil
}

// Stmt is a compiled statement handle: the parse/plan work is done once
// and the plan binds parameters straight into engine calls (full-stack code
// generation, Section 3.3). A Stmt is bound to its session and, like the
// session, is not safe for concurrent use.
type Stmt struct {
	s   *Session
	sql string
	c   *compiled
}

// Prepare compiles sql (through the shared plan cache).
func (s *Session) Prepare(sql string) (*Stmt, error) {
	s.tr.Begin(obs.StagePlanCache)
	c, hit, err := s.f.prepare(sql)
	if s.tr != nil {
		s.tr.PlanCache(hit)
		s.tr.End(obs.StagePlanCache)
	}
	if err != nil {
		return nil, err
	}
	return &Stmt{s: s, sql: sql, c: c}, nil
}

// NumParams reports the statement's parameter count.
func (st *Stmt) NumParams() int { return st.c.nParams }

// TxnVerb reports the parser's verdict on a transaction-control statement:
// "BEGIN", "COMMIT" or "ROLLBACK", and "" for any other statement. The
// network server asks it to route COMMIT, however expressed, through the
// pipelined commit path, and to refuse transaction control inside a batch.
func (st *Stmt) TxnVerb() string { return st.c.verb }

// Exec runs the compiled statement; a SELECT's rows come back decoded in
// Result.Rows. A DML statement's Result is the session's, valid until its
// next statement (see Result).
func (st *Stmt) Exec(args ...core.Value) (*Result, error) {
	return st.ExecEncoded(nil, args...)
}

// ExecEncoded is Exec for a caller that forwards rows instead of reading
// them (the network server): a SELECT's rows are appended to sink in wire
// form and Result.Rows stays nil (a nil sink is Exec). With a sink, a
// SELECT's Result is the session's, as a DML statement's always is: valid
// until its next statement (see Result). The plan revalidates its catalog
// generation first: if DDL ran since compile, the statement transparently
// recompiles (through the cache) rather than execute a plan that may capture
// stale table handles or routing.
func (st *Stmt) ExecEncoded(sink *RowBuf, args ...core.Value) (*Result, error) {
	s := st.s
	s.tr.Begin(obs.StagePlanCache)
	if st.c.gen != s.f.schemaGen.Load() {
		c, hit, err := s.f.prepare(st.sql)
		if err != nil {
			s.tr.End(obs.StagePlanCache)
			return nil, err
		}
		s.tr.PlanCache(hit)
		st.c = c
	} else {
		// A valid prepared handle is the ultimate plan-cache hit.
		s.tr.PlanCache(true)
	}
	s.tr.End(obs.StagePlanCache)
	return s.execute(st.c, args, sink)
}

// --- transaction handling --------------------------------------------------

// begin opens an explicit transaction lazily bound to the first engine used.
func (s *Session) begin() error {
	if s.txn != nil {
		return errors.New("sqlfront: transaction already open")
	}
	s.txn = nil
	// Engine binding is deferred to the first table access.
	s.txnEngine = "?pending"
	return nil
}

// txnFor returns the open transaction bound to ti's engine, opening an
// auto-commit transaction when none is open. Queries in one transaction
// cannot span engines (Section 3.4's current limitation).
func (s *Session) txnFor(ti *tableInfo) (engineapi.Txn, bool, error) {
	if s.txnEngine == "?pending" {
		t, err := ti.db.Begin(s.worker)
		if err != nil {
			return nil, false, err
		}
		s.attachTrace(t)
		s.txn = t
		s.txnEngine = ti.engine
		return t, false, nil
	}
	if s.txn != nil {
		if s.txnEngine != ti.engine {
			return nil, false, fmt.Errorf("%w: open on %q, statement targets %q",
				ErrCrossEngine, s.txnEngine, ti.engine)
		}
		return s.txn, false, nil
	}
	t, err := ti.db.Begin(s.worker)
	if err != nil {
		return nil, false, err
	}
	s.attachTrace(t)
	return t, true, nil
}

// attachTrace tags a freshly opened engine transaction with the session's
// active trace, when the engine supports it (engineapi.Traceable).
func (s *Session) attachTrace(t engineapi.Txn) {
	if s.tr == nil {
		return
	}
	if tt, ok := t.(engineapi.Traceable); ok {
		tt.SetTrace(s.tr)
	}
}

func (s *Session) commit() error {
	if s.txn == nil {
		if s.txnEngine == "?pending" { // BEGIN; COMMIT with no statements
			s.txnEngine = ""
			return nil
		}
		return ErrNoTxn
	}
	t := s.txn
	err := t.Commit()
	s.txn = nil
	s.txnEngine = ""
	if err == nil {
		s.noteCSN(t)
	}
	return err
}

// CommitAsync commits the open transaction through the engine's pipelined
// commit path when it has one (engineapi.AsyncCommitter): the transaction's
// effects are visible when this returns, the session is immediately free
// for the next statement, and done(err) fires once the commit is durable.
// It returns async=true exactly when done will be invoked later; on
// async=false the commit already finished (or failed to start) with err and
// done is never called. This is the session boundary the network server
// pipelines on: many connections' commits batch into one WAL group append
// while their sessions keep executing.
func (s *Session) CommitAsync(done func(error)) (async bool, err error) {
	if s.txn == nil {
		if s.txnEngine == "?pending" { // BEGIN; COMMIT with no statements
			s.txnEngine = ""
			return false, nil
		}
		return false, ErrNoTxn
	}
	t := s.txn
	s.txn = nil
	s.txnEngine = ""
	if ac, ok := t.(engineapi.AsyncCommitter); ok {
		wrapped := func(err error) {
			if err == nil {
				// Publish the token before done: the network server builds
				// its commit response (which carries the token) inside done.
				s.noteCSN(t)
			}
			done(err)
		}
		if err := ac.CommitAsync(wrapped); err != nil {
			return false, err
		}
		return true, nil
	}
	err = t.Commit()
	if err == nil {
		s.noteCSN(t)
	}
	return false, err
}

// PrepareTxn votes on the open transaction as a two-phase-commit
// participant under gtid (the wire protocol's OpTxnPrepare). On a nil
// return, done is guaranteed to fire -- possibly before PrepareTxn returns
// -- with the vote: readOnly=true is a "yes" vote that owes no decision
// (the transaction wrote nothing and committed locally); err != nil means
// the prepare record failed durability. A non-nil return is an immediate
// "no" vote (the transaction has been aborted) and done is never called.
// Either way the session is detached from the transaction when this
// returns -- a prepared participant is finished only by the engine's
// decision path, never by this session.
func (s *Session) PrepareTxn(gtid string, done func(readOnly bool, err error)) error {
	if s.txn == nil {
		if s.txnEngine == "?pending" { // BEGIN; PREPARE with no statements
			s.txnEngine = ""
			done(true, nil)
			return nil
		}
		return ErrNoTxn
	}
	t := s.txn
	s.txn = nil
	s.txnEngine = ""
	p, ok := t.(engineapi.Preparer)
	if !ok {
		t.Abort()
		return ErrNoPrepare
	}
	return p.PrepareAsync(gtid, done)
}

func (s *Session) rollback() error {
	if s.txn == nil {
		if s.txnEngine == "?pending" {
			s.txnEngine = ""
			return nil
		}
		return ErrNoTxn
	}
	err := s.txn.Abort()
	s.txn = nil
	s.txnEngine = ""
	return err
}

// Begin opens an explicit transaction (the wire protocol's OpBegin; SQL
// BEGIN reaches the same state through Exec).
func (s *Session) Begin() error { return s.begin() }

// Rollback aborts the open transaction (the wire protocol's OpAbort).
func (s *Session) Rollback() error { return s.rollback() }

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.txn != nil || s.txnEngine == "?pending" }

// opFailed cleans up after a failed statement: auto-commit transactions are
// aborted; explicit transactions that the engine already aborted (conflict
// or duplicate-key errors abort the whole transaction in every registered
// engine) are detached from the session so a subsequent ROLLBACK/COMMIT does
// not trip over a dead handle.
func (s *Session) opFailed(tx engineapi.Txn, auto bool, err error) {
	if auto {
		tx.Abort()
		return
	}
	if errors.Is(err, engineapi.ErrConflict) || errors.Is(err, engineapi.ErrDuplicate) {
		s.txn = nil
		s.txnEngine = ""
	}
}

// --- planning ----------------------------------------------------------------

// plan resolves a WHERE equality conjunction against the table's indexes:
// the chosen index is one whose column prefix is fully covered, preferring
// a full unique match (point lookup) over a prefix (scan).
type plan struct {
	idx      int
	prefix   []expr    // values for the matched index-column prefix
	point    bool      // full unique key covered
	residual []colExpr // conditions the index does not absorb, checked row by row
}

func buildPlan(schema *core.Schema, where []cond) (plan, error) {
	if len(where) == 0 {
		return plan{idx: 0, prefix: nil, point: false}, nil
	}
	byCol := make(map[int]expr, len(where))
	used := make(map[int]bool)
	for _, c := range where {
		pos := schema.ColumnIndex(c.col)
		if pos < 0 {
			return plan{}, fmt.Errorf("sqlfront: unknown column %q in WHERE", c.col)
		}
		byCol[pos] = c.rhs
	}
	best := plan{idx: -1}
	for i, def := range schema.Indexes {
		var prefix []expr
		for _, colPos := range def.Columns {
			e, ok := byCol[colPos]
			if !ok {
				break
			}
			prefix = append(prefix, e)
		}
		if len(prefix) == 0 {
			continue
		}
		point := def.Unique && len(prefix) == len(def.Columns)
		better := best.idx < 0 ||
			(point && !best.point) ||
			(point == best.point && len(prefix) > len(best.prefix))
		if better {
			best = plan{idx: i, prefix: prefix, point: point}
			// Track which conditions the index absorbs.
			used = make(map[int]bool)
			for j := 0; j < len(prefix); j++ {
				used[def.Columns[j]] = true
			}
		}
	}
	if best.idx < 0 {
		return plan{}, fmt.Errorf("%w (columns: %v)", ErrBadPlan, where)
	}
	for _, c := range where {
		if pos := schema.ColumnIndex(c.col); !used[pos] {
			best.residual = append(best.residual, colExpr{pos: pos, rhs: c.rhs})
		}
	}
	return best, nil
}

func bind(e expr, args []core.Value) core.Value {
	if e.isParam {
		return args[e.param]
	}
	return e.val
}

// bindAll appends the values of es to dst, which a session passes its
// scratch for.
func bindAll(dst []core.Value, es []expr, args []core.Value) []core.Value {
	for _, e := range es {
		dst = append(dst, bind(e, args))
	}
	return dst
}

// colExpr is a column position and the expression a statement gives it: a
// SET assignment or a residual WHERE equality.
type colExpr struct {
	pos int
	rhs expr
}

// bindCols is bindAll for column/value pairs.
func bindCols(dst []core.ColValue, ces []colExpr, args []core.Value) []core.ColValue {
	for _, ce := range ces {
		dst = append(dst, core.ColValue{Col: ce.pos, Val: bind(ce.rhs, args)})
	}
	return dst
}

// getThenUpdate is the point UPDATE on an engine without
// engineapi.ColumnUpdater: read the row, check the residual conditions,
// copy it with the assignments applied, write it back.
func getThenUpdate(tx engineapi.Txn, table string, key []core.Value, where, set []core.ColValue) (bool, error) {
	row, err := tx.GetByKey(table, 0, key...)
	if err != nil {
		return false, err
	}
	for _, w := range where {
		if !row[w.Col].Equal(w.Val) {
			return false, nil
		}
	}
	newRow := append(core.Row{}, row...)
	for _, cv := range set {
		newRow[cv.Col] = cv.Val
	}
	if err := tx.UpdateByKey(table, 0, key, newRow); err != nil {
		return false, err
	}
	return true, nil
}

// --- execution ----------------------------------------------------------------

// compile lowers a statement other than SELECT (compileSelect's) to a
// session-free execution closure over pre-resolved handles: the closure
// receives the executing session at call time, which is what lets one
// compiled plan be shared by every session through the frontend plan cache.
func (f *Frontend) compile(st stmt) (func(*Session, []core.Value) (*Result, error), error) {
	switch st := st.(type) {
	case *txnStmt:
		verb := st.verb
		return func(s *Session, _ []core.Value) (*Result, error) {
			var err error
			switch verb {
			case "BEGIN":
				err = s.begin()
			case "COMMIT":
				err = s.commit()
			default:
				err = s.rollback()
			}
			return &Result{}, err
		}, nil

	case *createTableStmt:
		schema := st.schema
		engine := st.engine
		return func(_ *Session, _ []core.Value) (*Result, error) {
			f.mu.Lock()
			defer f.mu.Unlock()
			name := engine
			if name == "" {
				name = f.defaultEngine
			}
			db, ok := f.engines[name]
			if !ok {
				return nil, fmt.Errorf("sqlfront: unknown engine %q", name)
			}
			if _, dup := f.tables[schema.Name]; dup {
				return nil, fmt.Errorf("sqlfront: table %q exists", schema.Name)
			}
			if len(schema.Indexes) == 0 {
				return nil, fmt.Errorf("sqlfront: table %q needs a PRIMARY KEY", schema.Name)
			}
			if err := db.CreateTable(schema); err != nil {
				return nil, err
			}
			f.tables[schema.Name] = &tableInfo{engine: name, db: db, schema: schema}
			// Catalog DDL: stamp every cached plan stale. The bump happens
			// while the new table is already visible, so recompiles resolve
			// against the post-DDL catalog.
			f.schemaGen.Add(1)
			return &Result{}, nil
		}, nil

	case *insertStmt:
		ti, err := f.tableInfo(st.table)
		if err != nil {
			return nil, err
		}
		if len(st.vals) != len(ti.schema.Columns) {
			return nil, fmt.Errorf("sqlfront: INSERT arity %d != %d columns",
				len(st.vals), len(ti.schema.Columns))
		}
		vals := st.vals
		return func(s *Session, args []core.Value) (*Result, error) {
			tx, auto, err := s.txnFor(ti)
			if err != nil {
				return nil, err
			}
			s.vals = bindAll(s.vals[:0], vals, args)
			if err := tx.Insert(ti.schema.Name, s.vals); err != nil {
				s.opFailed(tx, auto, err)
				return nil, err
			}
			if auto {
				if err := s.commitAuto(tx); err != nil {
					return nil, err
				}
			}
			return s.affected(1), nil
		}, nil

	case *updateStmt:
		ti, err := f.tableInfo(st.table)
		if err != nil {
			return nil, err
		}
		pl, err := buildPlan(ti.schema, st.where)
		if err != nil {
			return nil, err
		}
		if !pl.point || pl.idx != 0 {
			return nil, fmt.Errorf("%w: UPDATE requires full primary key equality", ErrBadPlan)
		}
		sets := make([]colExpr, len(st.sets))
		for i, sc := range st.sets {
			pos := ti.schema.ColumnIndex(sc.col)
			if pos < 0 {
				return nil, fmt.Errorf("sqlfront: unknown column %q in SET", sc.col)
			}
			sets[i] = colExpr{pos: pos, rhs: sc.rhs}
		}
		residual := pl.residual
		return func(s *Session, args []core.Value) (*Result, error) {
			tx, auto, err := s.txnFor(ti)
			if err != nil {
				return nil, err
			}
			s.vals = bindAll(s.vals[:0], pl.prefix, args)
			s.where = bindCols(s.where[:0], residual, args)
			s.set = bindCols(s.set[:0], sets, args)
			var updated bool
			if cu, ok := tx.(engineapi.ColumnUpdater); ok {
				updated, err = cu.UpdateColumns(ti.schema.Name, 0, s.vals, s.where, s.set)
			} else {
				updated, err = getThenUpdate(tx, ti.schema.Name, s.vals, s.where, s.set)
			}
			if err != nil && !errors.Is(err, engineapi.ErrNotFound) {
				s.opFailed(tx, auto, err)
				return nil, err
			}
			if !updated {
				if auto {
					tx.Abort()
				}
				return s.affected(0), nil
			}
			if auto {
				if err := s.commitAuto(tx); err != nil {
					return nil, err
				}
			}
			return s.affected(1), nil
		}, nil

	case *deleteStmt:
		ti, err := f.tableInfo(st.table)
		if err != nil {
			return nil, err
		}
		pl, err := buildPlan(ti.schema, st.where)
		if err != nil {
			return nil, err
		}
		if !pl.point || pl.idx != 0 {
			return nil, fmt.Errorf("%w: DELETE requires full primary key equality", ErrBadPlan)
		}
		return func(s *Session, args []core.Value) (*Result, error) {
			tx, auto, err := s.txnFor(ti)
			if err != nil {
				return nil, err
			}
			s.vals = bindAll(s.vals[:0], pl.prefix, args)
			if err := tx.DeleteByKey(ti.schema.Name, s.vals...); err != nil {
				if errors.Is(err, engineapi.ErrNotFound) {
					if auto {
						tx.Abort()
					}
					return s.affected(0), nil
				}
				s.opFailed(tx, auto, err)
				return nil, err
			}
			if auto {
				if err := s.commitAuto(tx); err != nil {
					return nil, err
				}
			}
			return s.affected(1), nil
		}, nil

	default:
		return nil, fmt.Errorf("sqlfront: unhandled statement %T", st)
	}
}
