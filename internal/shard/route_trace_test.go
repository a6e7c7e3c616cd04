package shard

import (
	"testing"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/node"
	"hiengine/internal/obs"
	"hiengine/internal/replica"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// TestTracedReadRoutesLikeUntraced: turning coordinator tracing on must not
// change where a statement runs. A read-only Router.Exec on a client that
// knows a replica is served by the replica (as OpExecAt, carrying the
// read-your-writes token) whether or not a distributed trace rides along;
// the traced call additionally brings the replica's stage block home.
func TestTracedReadRoutesLikeUntraced(t *testing.T) {
	// One shard: a primary that ships its log, and a replica serving reads.
	engine, err := core.Open(core.Config{Service: srss.New(srss.Config{Model: delay.Zero()}), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	primaryAddr := serveOn(t, engine, listen(t), node.Config{}).Addr()

	seed, err := client.New(client.Options{Addr: primaryAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	for _, sql := range []string{
		"CREATE TABLE bench (id INT, val INT, PRIMARY KEY(id))",
		"INSERT INTO bench VALUES (1, 41)",
	} {
		if _, err := seed.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}

	rreg := obs.NewRegistry("route-replica")
	f, rep, err := replica.Bootstrap(primaryAddr, core.Config{
		Service: srss.New(srss.Config{Model: delay.Zero()}),
		Workers: 4,
		Obs:     rreg,
	}, core.RecoverOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	replicaAddr := serveOn(t, rep.Engine(), listen(t), node.Config{
		Follower: f, PrimaryAddr: primaryAddr, Poll: 2 * time.Millisecond,
	}).Addr()
	if !f.WaitCSN(seed.LastCSN(), 10*time.Second) {
		t.Fatalf("replica never reached CSN %d", seed.LastCSN())
	}

	m, err := NewMap(1, []string{primaryAddr})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(m, client.Options{ReplicaAddrs: []string{replicaAddr}}, nil)
	defer r.Close()
	execAt := rreg.Counter("server.requests.exec_at")

	read := func(what string, want int64) {
		t.Helper()
		res, err := r.exec(1, "SELECT val FROM bench WHERE id = ?", core.I(1))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 41 {
			t.Fatalf("%s read: %v %+v", what, err, res)
		}
		if got := execAt.Load(); got != want {
			t.Fatalf("%s read: replica served %d exec_at requests, want %d", what, got, want)
		}
	}
	read("untraced", 1)
	r.Trace(true)
	read("traced", 2)

	tree := r.LastDistTrace()
	if tree == nil || len(tree.Hops) != 1 || tree.Hops[0].Op != wire.OpExecAt || tree.Hops[0].Info == nil {
		t.Fatalf("traced read did not bring the replica's hop home: %+v", tree)
	}
}
