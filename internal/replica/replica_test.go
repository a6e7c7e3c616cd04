package replica_test

import (
	"errors"
	"fmt"
	"net"
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

// serveNode stands a node up over engine on a fresh loopback port, the way
// production does, and closes it with the test.
func serveNode(t *testing.T, engine *core.Engine, cfg node.Config) *node.Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(engine, ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// startPrimary runs a primary engine behind a node.
func startPrimary(t *testing.T) (*core.Engine, string) {
	t.Helper()
	engine, err := core.Open(core.Config{
		Service:     srss.New(srss.Config{Model: delay.Zero()}),
		Workers:     4,
		SegmentSize: 64 << 10, // small segments so shipping crosses rotations
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine, serveNode(t, engine, node.Config{}).Addr()
}

// startReplica bootstraps a replica of the primary and serves it with the
// read-your-writes token honored against the follower's watermark.
func startReplica(t *testing.T, primaryAddr string) (*replica.Follower, *core.Replica, string) {
	t.Helper()
	reg := obs.NewRegistry("replicatest")
	f, rep, err := replica.Bootstrap(primaryAddr, core.Config{
		Service: srss.New(srss.Config{Model: delay.Zero()}),
		Workers: 4,
		Obs:     reg,
	}, core.RecoverOptions{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	n := serveNode(t, rep.Engine(), node.Config{
		Follower: f, PrimaryAddr: primaryAddr, Poll: 2 * time.Millisecond,
	})
	return f, rep, n.Addr()
}

// TestReplicaEndToEnd is the acceptance path: a replica process bootstraps
// from a live primary over the wire, replays its traffic as it commits,
// serves snapshot reads honoring the read-your-writes token, refuses
// writes with the read-only code, and converges its lag -- with zero
// spurious tail truncations on the follower's live-tail scans.
func TestReplicaEndToEnd(t *testing.T) {
	engine, primaryAddr := startPrimary(t)

	seed, err := client.New(client.Options{Addr: primaryAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	if _, err := seed.Exec("CREATE TABLE kv (k INT, v TEXT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Exec("INSERT INTO kv VALUES (?, ?)", core.I(0), core.S("seeded")); err != nil {
		t.Fatal(err)
	}

	follower, rep, replicaAddr := startReplica(t, primaryAddr)

	// The bootstrap image already holds the seeded row.
	rcl, err := client.New(client.Options{Addr: replicaAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	res, err := rcl.Exec("SELECT v FROM kv WHERE k = ?", core.I(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("bootstrap read: %d rows, want 1", len(res.Rows))
	}
	if g := rcl.Greeting(); g == nil || g.Role != wire.RoleReplica || g.PrimaryAddr != primaryAddr {
		t.Fatalf("replica greeting = %+v, want replica role pointing at %s", g, primaryAddr)
	}

	// Writes against the replica are refused with the read-only sentinel.
	if _, err := rcl.Exec("INSERT INTO kv VALUES (?, ?)", core.I(999), core.S("nope")); !errors.Is(err, core.ErrReadOnlyReplica) {
		t.Fatalf("write on replica: %v, want ErrReadOnlyReplica", err)
	}

	// Live traffic: a routed client writes through the primary and reads
	// its own writes through the replica (token makes the replica wait).
	cl, err := client.New(client.Options{Addr: primaryAddr, ReplicaAddrs: []string{replicaAddr}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if pg := cl.Greeting(); pg != nil && pg.Role != wire.RolePrimary {
		t.Fatalf("primary greeting role = %d, want primary", pg.Role)
	}
	for i := 1; i <= 50; i++ {
		if _, err := cl.Exec("INSERT INTO kv VALUES (?, ?)", core.I(int64(i)), core.S(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if cl.LastCSN() == 0 {
			t.Fatalf("insert %d: commit response carried no CSN token", i)
		}
		res, err := cl.Exec("SELECT v FROM kv WHERE k = ?", core.I(int64(i)))
		if err != nil {
			t.Fatalf("read-your-write %d: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("read-your-write %d: %d rows, want 1", i, len(res.Rows))
		}
	}

	// Direct token wait on the replica: a session presenting the current
	// token must see the row once the watermark catches up.
	rs, err := rcl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	res, err = rs.ExecAt(cl.LastCSN(), "SELECT v FROM kv WHERE k = ?", core.I(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("token read: %d rows, want 1", len(res.Rows))
	}

	// A token from the future times out with the retryable busy code (the
	// pooled client's cue to redirect to the primary).
	if _, err := rs.ExecAt(cl.LastCSN()+1_000_000, "SELECT v FROM kv WHERE k = ?", core.I(50)); err == nil {
		t.Fatal("future-token read succeeded, want busy")
	} else {
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeBusy {
			t.Fatalf("future-token read: %v, want CodeBusy", err)
		}
	}

	// Lag converges once traffic stops: the watermark reaches the primary
	// CSN of the last commit.
	deadline := time.Now().Add(10 * time.Second)
	for follower.LagCSN() != 0 || follower.AppliedCSN() < cl.LastCSN() {
		if time.Now().After(deadline) {
			t.Fatalf("lag did not converge: applied=%d target lag=%d", follower.AppliedCSN(), follower.LagCSN())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := follower.Err(); err != nil {
		t.Fatalf("follower poll error after convergence: %v", err)
	}

	// The live tail was never misread as torn on the follower.
	if cnt, bytes := rep.Engine().Log().TailTruncations(); cnt != 0 || bytes != 0 {
		t.Fatalf("replica counted %d tail truncations (%d bytes), want 0", cnt, bytes)
	}
	_ = engine
}

// TestReplicaSoakUnderLiveWrites hammers primary commits while the
// follower polls concurrently, then verifies the replica converged on the
// committed state without a single spurious tail truncation.
func TestReplicaSoakUnderLiveWrites(t *testing.T) {
	engine, primaryAddr := startPrimary(t)
	seed, err := client.New(client.Options{Addr: primaryAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	if _, err := seed.Exec("CREATE TABLE soak (k INT, v INT, PRIMARY KEY(k))"); err != nil {
		t.Fatal(err)
	}

	follower, rep, _ := startReplica(t, primaryAddr)

	// Hammer commits while the follower polls concurrently; then verify
	// the replica holds exactly the committed state.
	const rows = 200
	for i := 0; i < rows; i++ {
		if _, err := seed.Exec("INSERT INTO soak VALUES (?, ?)", core.I(int64(i)), core.I(int64(i*i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	target := seed.LastCSN()
	if target == 0 {
		t.Fatal("no CSN token from primary commits")
	}
	if !follower.WaitCSN(target, 10*time.Second) {
		t.Fatalf("follower never reached CSN %d (applied %d)", target, follower.AppliedCSN())
	}
	if cnt, bytes := rep.Engine().Log().TailTruncations(); cnt != 0 || bytes != 0 {
		t.Fatalf("soak counted %d truncations (%d bytes), want 0", cnt, bytes)
	}
	_ = engine
}
