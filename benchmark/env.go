package main

import (
	"fmt"
	"net"
	"sync"

	"hiengine/internal/adapt"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/obs"
	"hiengine/internal/server"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
)

const (
	// engineWorkers is the engine's session-slot count (and log-stream
	// count). Two clients never wait for a slot with four, also while a
	// cursor holds one beside its session's statement.
	engineWorkers = 4
	replayThreads = 2
)

// env is one deployment of the measured program: a 3-replica in-memory
// SRSS with the zero-latency model (the flush policy: a commit is acked
// once its log append has reached all three replicas; the spin-waiting
// cloud profile would burn one of this host's two cores), the engine, the
// SQL front end, and for wire workloads a 127.0.0.1 server and a pooled
// client, all in this process.
type env struct {
	seed   uint64
	schema schema
	svc    *srss.Service
	engine *core.Engine
	front  *sqlfront.Frontend
	srv    *server.Server
	cl     *client.Client
	served chan error // srv.Serve's return value
}

func engineConfig(svc *srss.Service) core.Config {
	return core.Config{Service: svc, Workers: engineWorkers}
}

// openEnv builds a deployment up to the point where the first op could
// run: open, DDL, preload, and with wire also listener and client. All of
// it is what setup_s times.
func openEnv(seed uint64, sch schema, wire bool, rows int) (*env, error) {
	e := &env{seed: seed, schema: sch, svc: srss.New(srss.Config{Model: delay.Zero()})}
	var err error
	if e.engine, err = core.Open(engineConfig(e.svc)); err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	e.front = sqlfront.NewFrontend("hiengine", adapt.New(e.engine))
	if _, err := e.front.NewSession(0).Exec(sch.ddl()); err != nil {
		e.close()
		return nil, fmt.Errorf("create table: %w", err)
	}
	if err := e.preload(rows); err != nil {
		e.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if wire {
		if err := e.serve(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// preload inserts rows [0, rows) at version 0 through engine transactions
// of 500 rows, one goroutine per client half, so the rows are logged and
// recovered like any committed write.
func (e *env) preload(rows int) error {
	tbl, err := e.engine.Table(e.schema.table())
	if err != nil {
		return err
	}
	const batch = 500
	var wg sync.WaitGroup
	errs := make([]error, nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo, hi := int64(c*rows/nClients), int64((c+1)*rows/nClients)
			for lo < hi {
				tx, err := e.engine.Begin(c)
				if err != nil {
					errs[c] = err
					return
				}
				for n := 0; n < batch && lo < hi; n, lo = n+1, lo+1 {
					if _, err := tx.Insert(tbl, e.schema.row(e.seed, lo, 0)); err != nil {
						tx.Abort()
						errs[c] = err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serve starts the loopback server and connects the client pool.
func (e *env) serve() error {
	srv, err := server.New(server.Config{
		Frontend:    e.front,
		WorkerSlots: e.engine.Workers(),
		Obs:         e.engine.Obs(),
		// Policy-free tracer, as hiserver runs with its admin plane up:
		// nothing is sampled, requests a client flags are traced.
		Tracer: obs.NewTracer(obs.TracerConfig{Registry: e.engine.Obs()}),
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	e.srv = srv
	e.served = make(chan error, 1)
	go func() { e.served <- srv.Serve(ln) }()
	// One spare connection beyond the clients' sessions serves the probes'
	// pings.
	e.cl, err = client.New(client.Options{Addr: ln.Addr().String(), PoolSize: nClients + 1})
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if err := e.cl.Ping(); err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	return nil
}

// stopServing closes the client and drains the server; the engine stays
// open so counters can still be read.
func (e *env) stopServing() {
	if e.cl != nil {
		e.cl.Close()
		e.cl = nil
	}
	if e.srv != nil {
		e.srv.Close()
		<-e.served
		e.srv = nil
	}
}

// close stops everything. With nothing in flight (the load is a closed
// loop that has returned) closing the engine is the crash point: what
// recovery sees is what the log held when the last op was acked.
func (e *env) close() {
	e.stopServing()
	if e.engine != nil {
		e.engine.Close()
		e.engine = nil
	}
}
