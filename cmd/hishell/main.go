// Command hishell is an interactive SQL shell over HiEngine, with the
// storage-centric baseline registered as a second engine so the vertical
// multi-engine deployment (Figure 3, left) can be driven by hand:
//
//	CREATE TABLE fast (id INT, v TEXT, PRIMARY KEY(id)) WITH ENGINE=hiengine
//	CREATE TABLE slow (id INT, v TEXT, PRIMARY KEY(id)) WITH ENGINE=innodb
//	INSERT INTO fast VALUES (1, 'hello')
//	SELECT * FROM fast WHERE id = 1
//	BEGIN / COMMIT / ROLLBACK
//
// With -connect host:port the same REPL drives a remote hiserver through
// the pooled wire-protocol client instead of an in-process engine;
// \stats is served via the stats opcode. Engine-maintenance meta commands
// (\checkpoint, \gc, \compact) are in-process only.
//
// Meta commands: \q quit, \stats engine counters, \trace on|off (remote:
// per-statement stage breakdown), \fetchsize [n] (remote: rows-per-page
// hint for streamed SELECTs), \checkpoint, \gc, \compact.
//
// Remote SELECTs outside a transaction stream through the cursor protocol
// (OpScanOpen/OpScanNext), so results of any size print page by page
// instead of tripping the server's one-shot response cap.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/baseline/innosim"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// session abstracts the REPL's backend: an in-process sqlfront session or
// a remote wire-protocol session.
type session interface {
	Exec(sql string, args ...core.Value) (*wire.Result, error)
	InTxn() bool
	Stats() (string, error)
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit code as values.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hishell", flag.ContinueOnError)
	fs.SetOutput(stderr)
	connect := fs.String("connect", "", "drive a remote hiserver at host:port instead of an in-process engine")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var (
		sess   session
		local  *localBackend
		remote *client.Session
	)
	if *connect != "" {
		cl, err := client.New(client.Options{Addr: *connect})
		if err != nil {
			fmt.Fprintln(stderr, "hishell:", err)
			return 1
		}
		defer cl.Close()
		s, err := cl.Session()
		if err != nil {
			fmt.Fprintln(stderr, "hishell: connect:", err)
			return 1
		}
		defer s.Close()
		if err := s.Ping(); err != nil {
			fmt.Fprintln(stderr, "hishell: connect:", err)
			return 1
		}
		fmt.Fprintf(stdout, "HiEngine shell -- connected to %s. \\q to quit.\n", *connect)
		remote = s
		sess = &remoteBackend{s: s, stmts: make(map[string]*client.Stmt)}
	} else {
		var err error
		local, err = newLocalBackend()
		if err != nil {
			fmt.Fprintln(stderr, "hishell:", err)
			return 1
		}
		defer local.close()
		fmt.Fprintln(stdout, "HiEngine shell -- engines: hiengine (default), innodb. \\q to quit.")
		sess = local
	}

	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lastShown *client.TraceResult
	for {
		if sess.InTxn() {
			fmt.Fprint(stdout, "hiengine*> ")
		} else {
			fmt.Fprint(stdout, "hiengine> ")
		}
		if !sc.Scan() {
			return 0
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "exit" || line == "quit":
			return 0
		case line == `\stats`:
			text, err := sess.Stats()
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
			} else {
				fmt.Fprint(stdout, text)
			}
			continue
		case line == `\trace on` || line == `\trace off`:
			if remote == nil {
				fmt.Fprintln(stdout, "error: \\trace needs a remote session (-connect)")
				continue
			}
			on := line == `\trace on`
			remote.Trace(on)
			if on {
				fmt.Fprintln(stdout, "tracing on: each statement's terminal response prints its stage breakdown")
			} else {
				fmt.Fprintln(stdout, "tracing off")
			}
			continue
		case line == `\fetchsize` || strings.HasPrefix(line, `\fetchsize `):
			if remote == nil {
				fmt.Fprintln(stdout, "error: \\fetchsize needs a remote session (-connect)")
				continue
			}
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\fetchsize`))
			if arg == "" {
				fmt.Fprintf(stdout, "fetch size: %d rows per page\n", remote.FetchSize())
				continue
			}
			var n int
			if _, err := fmt.Sscanf(arg, "%d", &n); err != nil || n <= 0 {
				fmt.Fprintln(stdout, "error: \\fetchsize wants a positive row count")
				continue
			}
			remote.SetFetchSize(n)
			fmt.Fprintf(stdout, "fetch size: %d rows per page\n", n)
			continue
		case line == `\checkpoint`:
			if local == nil {
				fmt.Fprintln(stdout, "error: \\checkpoint is in-process only")
				continue
			}
			csn, err := local.engine.Checkpoint()
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
			} else {
				fmt.Fprintf(stdout, "checkpoint at CSN %d\n", csn)
			}
			continue
		case line == `\gc`:
			if local == nil {
				fmt.Fprintln(stdout, "error: \\gc is in-process only")
				continue
			}
			fmt.Fprintf(stdout, "reclaimed %d versions\n", local.engine.RunGC())
			continue
		case line == `\compact`:
			if local == nil {
				fmt.Fprintln(stdout, "error: \\compact is in-process only")
				continue
			}
			stats, err := local.engine.CompactFull()
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
			} else {
				fmt.Fprintf(stdout, "rewrote %d records (%d B), dropped %d segments, reclaimed %d B\n",
					stats.RecordsRewritten, stats.BytesRewritten, stats.SegmentsDropped, stats.BytesReclaimed)
			}
			continue
		}
		// Remote SELECTs outside a transaction stream through the cursor
		// protocol: results of any size print page by page. Inside a
		// transaction the server refuses cursors (the pinned snapshot
		// would not see the transaction's own writes), so fall through to
		// the one-shot path.
		if remote != nil && !remote.InTxn() && isSelectText(line) {
			rows, err := remote.Query(line)
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
				continue
			}
			n := 0
			for rows.Next() {
				row := rows.Row()
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = v.String()
				}
				fmt.Fprintln(stdout, strings.Join(parts, " | "))
				n++
			}
			if err := rows.Close(); err != nil {
				fmt.Fprintln(stdout, "error:", err)
				continue
			}
			fmt.Fprintf(stdout, "(%d rows)\n", n)
			continue
		}
		res, err := sess.Exec(line)
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
			continue
		}
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Fprintln(stdout, strings.Join(parts, " | "))
		}
		if len(res.Rows) > 0 {
			fmt.Fprintf(stdout, "(%d rows)\n", len(res.Rows))
		} else if res.Affected > 0 {
			fmt.Fprintf(stdout, "OK, %d affected\n", res.Affected)
		} else {
			fmt.Fprintln(stdout, "OK")
		}
		// A traced unit completes on its terminal response (an autocommit
		// statement, or COMMIT/ROLLBACK closing a transaction); print each
		// completed breakdown once.
		if remote != nil {
			if lt := remote.LastTrace(); lt != nil && lt != lastShown {
				lastShown = lt
				printTrace(stdout, lt)
			}
		}
	}
}

// isSelectText reports whether the statement text is a SELECT (the only
// streamable statement class).
func isSelectText(sql string) bool {
	s := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	return len(s) >= 6 && strings.EqualFold(s[:6], "SELECT")
}

// printTrace renders one completed traced unit as a stage table.
func printTrace(w io.Writer, lt *client.TraceResult) {
	info := lt.Info
	fmt.Fprintf(w, "trace %d: server %v", info.TraceID, time.Duration(info.TotalNS))
	if info.HasShard {
		fmt.Fprintf(w, ", shard %d", info.Shard)
		if info.Hop > 0 {
			fmt.Fprintf(w, " hop %d", info.Hop)
		}
	}
	if lt.ClientNS > 0 {
		fmt.Fprintf(w, ", client %v, network+queue %v", time.Duration(lt.ClientNS), time.Duration(lt.NetworkNS()))
	}
	if info.Batch > 0 {
		fmt.Fprintf(w, ", commit batch %d", info.Batch)
	}
	switch {
	case info.PlanHit && info.PlanMiss:
		fmt.Fprint(w, ", plan cache mixed")
	case info.PlanHit:
		fmt.Fprint(w, ", plan cache hit")
	case info.PlanMiss:
		fmt.Fprint(w, ", plan cache miss")
	}
	fmt.Fprintln(w)
	for _, st := range info.Stages {
		fmt.Fprintf(w, "  %-14s @%-10v %v\n", st.Stage.String(), time.Duration(st.BeginNS), time.Duration(st.DurNS))
	}
}

// remoteBackend drives a remote hiserver through prepared statements: the
// first execution of a SQL text prepares it (one parse, server-side), and
// re-running the same text -- the common REPL pattern -- ships only the
// statement id. BEGIN/COMMIT/ROLLBACK go through the session's text
// routing so transaction state tracking stays with the client session.
type remoteBackend struct {
	s     *client.Session
	stmts map[string]*client.Stmt
}

// remoteStmtCacheSize bounds the shell's prepared handles well below the
// server's per-connection statement-table bound.
const remoteStmtCacheSize = 64

func (r *remoteBackend) Exec(sql string, args ...core.Value) (*wire.Result, error) {
	switch strings.ToUpper(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))) {
	case "BEGIN", "COMMIT", "ROLLBACK":
		return r.s.Exec(sql, args...)
	}
	st, ok := r.stmts[sql]
	if !ok {
		var err error
		st, err = r.s.Prepare(sql)
		if err != nil {
			return nil, err
		}
		if len(r.stmts) >= remoteStmtCacheSize {
			for k, old := range r.stmts { // evict an arbitrary entry
				old.Close()
				delete(r.stmts, k)
				break
			}
		}
		r.stmts[sql] = st
	}
	return st.Exec(args...)
}

func (r *remoteBackend) InTxn() bool { return r.s.InTxn() }

func (r *remoteBackend) Stats() (string, error) { return r.s.Stats() }

// localBackend is the in-process deployment: engine + baseline behind one
// SQL frontend, as before the network layer existed.
type localBackend struct {
	engine *core.Engine
	inno   *innosim.DB
	sess   *sqlfront.Session
}

func newLocalBackend() (*localBackend, error) {
	model := delay.CloudProfile()
	engine, err := core.Open(core.Config{
		Service: srss.New(srss.Config{Model: model}),
		Workers: 8,
	})
	if err != nil {
		return nil, err
	}
	inno, err := innosim.New(innosim.Config{Service: srss.New(srss.Config{Model: model})})
	if err != nil {
		engine.Close()
		return nil, err
	}
	front := sqlfront.NewFrontend("hiengine", adapt.New(engine))
	front.Register("innodb", inno)
	return &localBackend{engine: engine, inno: inno, sess: front.NewSession(0)}, nil
}

func (l *localBackend) close() {
	l.inno.Close()
	l.engine.Close()
}

func (l *localBackend) InTxn() bool { return l.sess.InTxn() }

func (l *localBackend) Exec(sql string, args ...core.Value) (*wire.Result, error) {
	res, err := l.sess.Exec(sql, args...)
	if err != nil {
		return nil, err
	}
	return &wire.Result{Rows: res.Rows, Columns: res.Columns, Affected: res.Affected}, nil
}

func (l *localBackend) Stats() (string, error) {
	s := l.engine.Stats()
	head := fmt.Sprintf("commits=%d aborts=%d conflicts=%d reclaimed=%d checkpoints=%d compactions=%d log=%dB\n",
		s.Commits.Load(), s.Aborts.Load(), s.Conflicts.Load(),
		s.ReclaimedVersions.Load(), s.Checkpoints.Load(), s.Compactions.Load(),
		l.engine.Log().TotalBytes())
	return head + l.engine.Obs().Snapshot().String(), nil
}
