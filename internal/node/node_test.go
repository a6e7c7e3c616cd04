package node_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hiengine/internal/admin"
	"hiengine/internal/chaos"
	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/node"
	"hiengine/internal/replica"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

func listen(t *testing.T, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func engineCfg(svc *srss.Service) core.Config { return core.Config{Service: svc, Workers: 4} }

func openEngine(t *testing.T, svc *srss.Service) *core.Engine {
	t.Helper()
	e, err := core.Open(engineCfg(svc))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// start serves engine on ln; the test's end closes the node if the test has
// not (Close twice is harmless).
func start(t *testing.T, engine *core.Engine, ln net.Listener, cfg node.Config) *node.Node {
	t.Helper()
	n, err := node.New(engine, ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// bootstrap mirrors the primary at addr into a fresh service carrying ch.
func bootstrap(t *testing.T, addr string, ch *chaos.Engine) (*replica.Follower, *core.Engine) {
	t.Helper()
	f, rep, err := replica.Bootstrap(addr, engineCfg(srss.New(srss.Config{Model: delay.Zero(), Chaos: ch})),
		core.RecoverOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f, rep.Engine()
}

func exec(t *testing.T, addr string, sqls ...string) {
	t.Helper()
	cl, err := client.New(client.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, sql := range sqls {
		if _, err := cl.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

const (
	createKV = "CREATE TABLE kv (k INT, v TEXT, PRIMARY KEY(k))"
	insertKV = "INSERT INTO kv VALUES (1, 'one')"
)

// TestEveryKindOfNodeIsWiredAlike pins what the hand-wired harnesses had
// drifted from: however its engine came to be, a node serves the tables the
// engine holds (created here, recovered, or replayed after bootstrap -- the
// test calls no catalog function), answers the 2PC status opcode, can be
// fenced by a higher epoch, and leaves no goroutine behind.
func TestEveryKindOfNodeIsWiredAlike(t *testing.T) {
	type built struct {
		n       *node.Node
		engine  *core.Engine
		replica bool
		others  []*node.Node // closed after n
	}
	fresh := func(t *testing.T) built {
		e := openEngine(t, srss.New(srss.Config{Model: delay.Zero()}))
		n := start(t, e, listen(t, "127.0.0.1:0"), node.Config{})
		exec(t, n.Addr(), createKV, insertKV)
		return built{n: n, engine: e}
	}
	kinds := []struct {
		name  string
		build func(t *testing.T) built
	}{
		{"fresh primary", fresh},
		{"recovered primary on the same address", func(t *testing.T) built {
			svc := srss.New(srss.Config{Model: delay.Zero()})
			e := openEngine(t, svc)
			n := start(t, e, listen(t, "127.0.0.1:0"), node.Config{})
			exec(t, n.Addr(), createKV, insertKV)
			n.Close()
			e2, _, err := core.Recover(engineCfg(svc), e.ManifestID(), core.RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return built{n: start(t, e2, listen(t, n.Addr()), node.Config{}), engine: e2}
		}},
		{"replica", func(t *testing.T) built {
			p := start(t, openEngine(t, srss.New(srss.Config{Model: delay.Zero()})), listen(t, "127.0.0.1:0"), node.Config{})
			f, e := bootstrap(t, p.Addr(), nil)
			n := start(t, e, listen(t, "127.0.0.1:0"), node.Config{Follower: f, PrimaryAddr: p.Addr(), Poll: time.Millisecond})
			exec(t, p.Addr(), createKV, insertKV) // after bootstrap: only replay brings it
			return built{n: n, engine: e, replica: true, others: []*node.Node{p}}
		}},
		{"shard member", func(t *testing.T) built {
			e := openEngine(t, srss.New(srss.Config{Model: delay.Zero()}))
			ln := listen(t, "127.0.0.1:0")
			sm := wire.ShardMap{Version: 1, SelfID: 1, Addrs: []string{"elsewhere:1", ln.Addr().String()}}
			if err := e.SetShardMap(wire.EncodeShardMap(&sm)); err != nil {
				t.Fatal(err)
			}
			n := start(t, e, ln, node.Config{})
			exec(t, n.Addr(), createKV, insertKV)
			return built{n: n, engine: e}
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			b := k.build(t)
			cl, err := client.New(client.Options{Addr: b.n.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// The replica adopts the table at its next poll after replay.
			deadline := time.Now().Add(10 * time.Second)
			for {
				res, err := cl.Exec("SELECT v FROM kv WHERE k = 1")
				if err == nil && len(res.Rows) == 1 && res.Rows[0][0].Str() == "one" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node never served kv: %v %+v", err, res)
				}
				time.Sleep(time.Millisecond)
			}

			s, err := cl.Session()
			if err != nil {
				t.Fatal(err)
			}
			if st, csn, err := s.TxnStatus(wire.NewGTID(0, 1, 1)); err != nil || st != wire.TxnUnknown || csn != 0 {
				t.Fatalf("OpTxnStatus of an unknown gtid = %d, %d, %v; want TxnUnknown", st, csn, err)
			}
			sm, err := s.ShardMap(false, 0)
			if k.name == "shard member" {
				if err != nil || sm.SelfID != 1 || len(sm.Addrs) != 2 {
					t.Fatalf("OpShardMap = %+v, %v; want shard 1 of 2", sm, err)
				}
				if st, _ := b.n.Status()["shard"].(map[string]any); st == nil || st["id"] != uint32(1) {
					t.Fatalf("status shard block = %+v", b.n.Status()["shard"])
				}
			} else if err == nil {
				t.Fatalf("OpShardMap on an unsharded node = %+v, want a refusal", sm)
			}
			s.Close()

			// A node that can come to write -- a replica once promoted -- must
			// demote when a newer lineage shows itself.
			if b.replica {
				if _, err := b.n.Promote(); err != nil {
					t.Fatal(err)
				}
			}
			sh := replica.NewShipper(b.n.Addr(), nil)
			sh.ObserveEpoch(b.engine.Epoch() + 1)
			// The answer still carries the node's own, now stale, epoch.
			if _, _, err := sh.Hello(); !errors.Is(err, core.ErrStaleEpoch) {
				t.Fatalf("hello at a higher epoch: %v, want the stale-epoch answer", err)
			}
			sh.Close()
			if !b.engine.Fenced() {
				t.Fatalf("a hello at epoch %d left the node unfenced at epoch %d", b.engine.Epoch()+1, b.engine.Epoch())
			}

			cl.Close()
			b.n.Close()
			for _, o := range b.others {
				o.Close()
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestReadyNamesItsReasonAndAPromotedNodeIsReady walks one primary and one
// lagging replica through every reason /healthz has to refuse, each with its
// numbers, and ends on the defect this test was written for: a promoted node
// kept the lag of its last poll as a replica for the rest of its life.
func TestReadyNamesItsReasonAndAPromotedNodeIsReady(t *testing.T) {
	pe := openEngine(t, srss.New(srss.Config{Model: delay.Zero()}))
	primary := start(t, pe, listen(t, "127.0.0.1:0"), node.Config{})
	exec(t, primary.Addr(), createKV)

	ch := chaos.New(1)
	f, se := bootstrap(t, primary.Addr(), ch)
	for i := 0; i < 20; i++ {
		exec(t, primary.Addr(), fmt.Sprintf("INSERT INTO kv VALUES (%d, 'v')", i))
	}
	// From here every ship fails after its hello has landed: the follower
	// learns how far ahead the primary is and cannot catch up. (An hour's
	// poll interval leaves the node's own loop its first round only.)
	ch.Arm(chaos.Rule{Site: replica.SiteShipFetch, Action: chaos.Fault, Prob: 1})
	standby := start(t, se, listen(t, "127.0.0.1:0"), node.Config{
		Follower: f, PrimaryAddr: primary.Addr(), Poll: time.Hour, ReadyMaxLag: 10,
	})
	if err := f.Poll(); err == nil {
		t.Fatal("poll succeeded with every ship fetch failing")
	}
	lag := f.LagCSN()
	if lag <= 10 {
		t.Fatalf("lag_csn = %d after 20 unshipped commits, want > 10", lag)
	}

	check := func(n *node.Node, want string) {
		t.Helper()
		got := ""
		if err := n.Ready(); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Fatalf("Ready() = %q, want %q", got, want)
		}
		adm := httptest.NewServer(admin.New(admin.Config{Ready: n.Ready}).Handler())
		defer adm.Close()
		resp, err := http.Get(adm.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		code, text := 200, "ok"
		if want != "" {
			code, text = 503, "unready: "+want
		}
		if resp.StatusCode != code || strings.TrimSpace(string(body)) != text {
			t.Fatalf("/healthz = %d %q, want %d %q", resp.StatusCode, body, code, text)
		}
	}

	check(primary, "")
	check(standby, fmt.Sprintf("replica lagging: lag_csn %d > 10", lag))
	if st := standby.Status(); st["role"] != "replica" || st["lag_csn"] != lag || st["poll_error"] == nil {
		t.Fatalf("lagging replica status = %+v", st)
	}

	if err := primary.Stop(); err != nil {
		t.Fatal(err)
	}
	check(primary, "draining")
	epoch, err := standby.Promote()
	if err != nil || epoch != 2 {
		t.Fatalf("Promote() = %d, %v; want epoch 2", epoch, err)
	}
	if again, err := standby.Promote(); err != nil || again != epoch {
		t.Fatalf("second Promote() = %d, %v; want %d again", again, err, epoch)
	}
	if got := f.LagCSN(); got != 0 {
		t.Fatalf("lag_csn = %d on a promoted node, want 0", got)
	}
	check(standby, "")
	st := standby.Status()
	if st["role"] != "primary (promoted)" || st["epoch"] != uint64(2) {
		t.Fatalf("promoted status = %+v", st)
	}
	for _, key := range []string{"applied_csn", "lag_csn", "poll_error", "repl_fetch_us"} {
		if _, ok := st[key]; ok {
			t.Fatalf("promoted status still carries %s: %+v", key, st)
		}
	}
	exec(t, standby.Addr(), "INSERT INTO kv VALUES (100, 'written on the promoted node')")

	// The old primary hears of the new lineage.
	pe.ObserveEpoch(epoch)
	check(primary, "fenced by epoch 2 (own epoch 1)")
}
