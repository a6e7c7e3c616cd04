// Command hiserver runs HiEngine as a network daemon: the cloud-service
// shape of the paper's Figure 3, one SQL frontend in front of registered
// storage engines, serving remote sessions over the internal/wire
// protocol. The storage-centric baseline is registered as a second engine
// (WITH ENGINE=innodb) so a remote session can drive the vertical
// multi-engine deployment.
//
// Usage:
//
//	hiserver -addr :7609
//	hiserver -addr :7609 -http :7610    # + HTTP admin plane
//	hishell -connect localhost:7609     # remote REPL
//
// The admin plane (-http) serves /metrics (Prometheus), /statusz (JSON),
// /traces (recent/slow request traces), /clusterz (the whole cluster's
// merged status; peers named by -peer-admin), /healthz (readiness: 503
// when fenced, draining, or lagging past -ready-max-lag) and /debug/pprof.
// Request tracing is configured with -trace-sample and -trace-slow;
// client-flagged requests are always traced.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener closes, new
// requests are refused with the fatal wire code, and in-flight commits
// finish durably before the process exits; the final metrics snapshot is
// dumped to stderr so a scrape-less deployment still gets its numbers.
//
// A replica process (-replica-of) can be promoted to primary at runtime
// with SIGUSR1 or POST /promote on the admin plane: the follower drains
// a final catch-up, the engine seals the shipped log tail and starts
// writing at a bumped epoch, and the wire server flips to the primary
// role -- clients rediscover it through greetings, and the fenced old
// primary refuses writes with the stale-epoch code.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hiengine/internal/admin"
	"hiengine/internal/baseline/innosim"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/engineapi"
	"hiengine/internal/node"
	"hiengine/internal/obs"
	"hiengine/internal/replica"
	"hiengine/internal/shard"
	"hiengine/internal/srss"
)

// parseShardMap turns the -shard-map flag into the address list: either a
// comma-separated list inline, or "@path" naming a file with one address
// per line (blank lines and #-comments ignored).
func parseShardMap(v string) ([]string, error) {
	sep := ","
	if strings.HasPrefix(v, "@") {
		b, err := os.ReadFile(v[1:])
		if err != nil {
			return nil, fmt.Errorf("read shard map: %w", err)
		}
		v, sep = string(b), "\n"
	}
	var addrs []string
	for _, a := range strings.Split(v, sep) {
		if a = strings.TrimSpace(a); a != "" && !strings.HasPrefix(a, "#") {
			addrs = append(addrs, a)
		}
	}
	return addrs, nil
}

// parsePeerAdmin turns the -peer-admin flag (same comma/@file shape as
// -shard-map) into the /clusterz peer list. Each entry is name=host:port;
// a bare host:port names itself.
func parsePeerAdmin(v string) ([]admin.Peer, error) {
	entries, err := parseShardMap(v)
	if err != nil {
		return nil, err
	}
	var peers []admin.Peer
	for _, e := range entries {
		name, addr, ok := strings.Cut(e, "=")
		if !ok {
			name, addr = e, e
		}
		if addr == "" {
			return nil, fmt.Errorf("peer-admin: empty address in %q", e)
		}
		peers = append(peers, admin.Peer{Name: name, Addr: addr})
	}
	return peers, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit code as values. The
// daemon reads nothing and writes its log to stderr.
func run(args []string, _ io.Reader, _, stderr io.Writer) int {
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	defer signal.Stop(signals)
	err := serve(args, stderr, signals)
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintln(stderr, "hiserver:", err)
	return 1
}

// errUsage marks a flag-parsing failure: the flag package has printed it.
var errUsage = errors.New("usage")

// serve runs the daemon until a signal other than SIGUSR1 arrives, which
// promotes a replica (the admin plane's POST /promote by another door).
func serve(args []string, stderr io.Writer, signals <-chan os.Signal) error {
	fs := flag.NewFlagSet("hiserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ncfg       node.Config
		reg        = obs.NewRegistry("hiserver")
		ecfg       = core.Config{Obs: reg}
		addr       = fs.String("addr", ":7609", "listen address")
		httpAddr   = fs.String("http", "", "HTTP admin-plane listen address (empty = off)")
		profile    = fs.String("profile", "cloud", "latency model: cloud or zero")
		statsEvery = fs.Duration("stats-interval", 0, "periodic one-line stats summary to stderr (0 = off)")
		shardID    = fs.Uint("shard-id", 0, "this node's shard id in -shard-map")
		shardMap   = fs.String("shard-map", "", "cluster shard map: comma-separated node addresses (index = shard id), or @file with one address per line")
		nodeName   = fs.String("name", "", "node name in /clusterz (default: shard<id>, replica, or primary)")
		peerAdmin  = fs.String("peer-admin", "", "peer admin addresses for /clusterz: comma-separated name=host:port entries (name optional), or @file with one entry per line")
	)
	fs.IntVar(&ecfg.Workers, "workers", 8, "engine worker slots (max concurrent transactions)")
	fs.IntVar(&ncfg.MaxConns, "max-conns", 256, "max concurrent connections")
	fs.IntVar(&ncfg.MaxInFlight, "max-inflight", 4096, "max admitted unanswered requests")
	fs.DurationVar(&ncfg.DrainTimeout, "drain", 5*time.Second, "graceful-drain timeout on shutdown")
	fs.IntVar(&ncfg.TraceSample, "trace-sample", 0, "trace 1 in N requests (0 = head sampling off)")
	fs.DurationVar(&ncfg.TraceSlow, "trace-slow", 0, "always capture traces slower than this (0 = off)")
	fs.StringVar(&ncfg.PrimaryAddr, "replica-of", "", "primary wire address to follow as a read replica")
	fs.DurationVar(&ncfg.Poll, "replica-poll", 10*time.Millisecond, "replica log-shipping poll interval")
	fs.Int64Var(&ncfg.ReadyMaxLag, "ready-max-lag", 0, "replica readiness: /healthz answers 503 once lag_csn exceeds this (0 = lag never gates readiness)")
	if err := fs.Parse(args); err != nil {
		return errors.Join(errUsage, err)
	}

	shardAddrs, err := parseShardMap(*shardMap)
	if err != nil {
		return err
	}
	peers, err := parsePeerAdmin(*peerAdmin)
	if err != nil {
		return err
	}
	if len(shardAddrs) > 0 && int(*shardID) >= len(shardAddrs) {
		return fmt.Errorf("-shard-id %d out of range for %d-shard map", *shardID, len(shardAddrs))
	}
	if len(shardAddrs) > 0 && ncfg.PrimaryAddr != "" {
		return errors.New("-shard-map is a primary flag; replicas inherit the map from their primary")
	}

	model := delay.CloudProfile()
	if *profile == "zero" {
		model = delay.Zero()
	}
	ecfg.Service = srss.New(srss.Config{Model: model})
	var engine *core.Engine
	if ncfg.PrimaryAddr != "" {
		// Replica mode: mirror the primary's PLogs into a fresh local
		// SRSS deployment, open a read-only engine over the mirror, and
		// follow the primary's log.
		f, rep, err := replica.Bootstrap(ncfg.PrimaryAddr, ecfg, core.RecoverOptions{}, reg)
		if err != nil {
			return fmt.Errorf("replica bootstrap: %w", err)
		}
		ncfg.Follower, engine = f, rep.Engine()
		fmt.Fprintf(stderr, "hiserver: replica of %s, applied CSN %d\n", ncfg.PrimaryAddr, f.AppliedCSN())
	} else {
		inno, err := innosim.New(innosim.Config{Service: srss.New(srss.Config{Model: model})})
		if err != nil {
			return err
		}
		defer inno.Close()
		ncfg.Engines = map[string]engineapi.DB{"innodb": inno}
		if engine, err = core.Open(ecfg); err != nil {
			return err
		}
	}
	defer engine.Close()

	// Sharded deployment: persist the flag-supplied topology (stamped with
	// this node's shard id) as the newest manifest record; the node serves
	// whatever the manifest holds over OpShardMap so clients can
	// self-bootstrap from any member, and its own peers' addresses tell it
	// whom to ask about a gtid left in doubt. A restart without the flags keeps
	// serving the persisted map; a replica inherits its primary's record
	// through log shipping.
	if len(shardAddrs) > 0 {
		m, err := shard.NewMap(1, shardAddrs)
		if err != nil {
			return err
		}
		m.SelfID = uint32(*shardID)
		prev := engine.ShardMapPayload()
		if pm, err := shard.DecodeMap(prev); err == nil {
			m.Version = pm.Version
			if string(prev) != string(m.Encode()) {
				m.Version++ // a changed topology takes the next version
			}
		}
		if string(prev) != string(m.Encode()) { // an unchanged one keeps its record
			if err := engine.SetShardMap(m.Encode()); err != nil {
				return fmt.Errorf("persist shard map: %w", err)
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	n, err := node.New(engine, ln, ncfg)
	if err != nil {
		return err
	}
	defer n.Close()

	name := *nodeName
	switch {
	case name != "":
	case len(shardAddrs) > 0:
		name = fmt.Sprintf("shard%d", *shardID)
	case ncfg.Follower != nil:
		name = "replica"
	default:
		name = "primary"
	}

	if *httpAddr != "" {
		acfg := admin.Config{
			Registry: reg,
			Tracer:   n.Tracer(),
			Info: map[string]string{
				"name":    name,
				"addr":    n.Addr(),
				"profile": *profile,
				"primary": ncfg.PrimaryAddr,
			},
			Status: n.Status,
			Ready:  n.Ready,
			Peers:  func() []admin.Peer { return peers },
		}
		if ncfg.Follower != nil {
			acfg.Promote = n.Promote // a process born primary answers 404
		}
		adm := admin.New(acfg)
		aln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			adm.Shutdown(ctx)
			cancel()
		}()
		go func() {
			if err := adm.Serve(aln); err != nil {
				fmt.Fprintln(stderr, "hiserver: admin:", err)
			}
		}()
		fmt.Fprintf(stderr, "hiserver: admin plane on http://%s (/metrics /statusz /traces /clusterz /healthz /debug/pprof)\n",
			aln.Addr())
	}

	// The periodic one-line summary and the signals share one goroutine,
	// which ends with the drain.
	tick := time.Tick(*statsEvery) // nil, so never ready, at interval 0
	go func() {
		for {
			select {
			case <-tick:
				fmt.Fprintf(stderr, "hiserver: %s\n", node.StatsLine(engine))
			case sig := <-signals:
				if sig != syscall.SIGUSR1 {
					fmt.Fprintln(stderr, "hiserver: draining...")
					if err := n.Stop(); err != nil {
						fmt.Fprintln(stderr, "hiserver: drain:", err)
					}
					return
				}
				if ncfg.Follower == nil {
					continue // nothing to promote in a process born primary
				}
				if epoch, err := n.Promote(); err != nil {
					fmt.Fprintln(stderr, "hiserver: promote:", err)
				} else {
					fmt.Fprintf(stderr, "hiserver: promoted to primary at epoch %d\n", epoch)
				}
			}
		}
	}()

	if ncfg.Follower != nil {
		fmt.Fprintf(stderr, "hiserver: read replica of %s; listening on %s\n", ncfg.PrimaryAddr, n.Addr())
	} else {
		fmt.Fprintf(stderr, "hiserver: engines hiengine (default), innodb; listening on %s\n", n.Addr())
	}
	if sm, err := shard.DecodeMap(engine.ShardMapPayload()); err == nil {
		fmt.Fprintf(stderr, "hiserver: shard %d of %d (map version %d)\n", sm.SelfID, len(sm.Addrs), sm.Version)
	}
	if err := n.Wait(); err != nil {
		return err
	}
	// The accept loop returns when the drain begins: wait for it to finish,
	// then dump the full metrics snapshot so the run's numbers survive it.
	n.Close()
	fmt.Fprintln(stderr, "hiserver: final stats:", node.StatsLine(engine))
	fmt.Fprint(stderr, reg.Snapshot().String())
	fmt.Fprintln(stderr, "hiserver: drained, bye")
	return nil
}
