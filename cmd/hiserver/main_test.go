package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hiengine/internal/client"
)

// daemon is one hiserver running in this process: serve on a goroutine, its
// stderr captured, its signals a channel the test sends on.
type daemon struct {
	t       *testing.T
	mu      sync.Mutex
	log     bytes.Buffer
	signals chan os.Signal
	exited  chan error
}

func (d *daemon) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Write(p)
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// start runs hiserver with args on loopback ports and zero latency, and
// returns once it says where it listens.
func start(t *testing.T, args ...string) (d *daemon, addr string) {
	t.Helper()
	d = &daemon{t: t, signals: make(chan os.Signal, 1), exited: make(chan error, 1)}
	args = append([]string{"-addr", "127.0.0.1:0", "-profile", "zero"}, args...)
	go func() { d.exited <- serve(args, d, d.signals) }()
	t.Cleanup(func() { d.term() })
	return d, d.await(`listening on (\S+)`)
}

// await returns the first submatch of re in the daemon's log, once there.
func (d *daemon) await(re string) string {
	d.t.Helper()
	rx := regexp.MustCompile(re)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if m := rx.FindStringSubmatch(d.output()); m != nil {
			return m[1]
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			d.t.Fatalf("hiserver exited (%v) before logging %q:\n%s", err, re, d.output())
		default:
		}
	}
	d.t.Fatalf("hiserver never logged %q:\n%s", re, d.output())
	return ""
}

// term is SIGTERM: it returns serve's error and everything it logged.
func (d *daemon) term() (error, string) {
	select {
	case d.signals <- syscall.SIGTERM:
	case err := <-d.exited: // it has stopped already
		d.exited <- err
	}
	err := <-d.exited
	d.exited <- err
	return err, d.output()
}

func request(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.New(client.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func mustExec(t *testing.T, cl *client.Client, sql string) {
	t.Helper()
	if _, err := cl.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestPrimaryServesDrainsAndReports: the plain daemon serves both engines on
// the port it says it listens on (not the ":0" it was given), and a SIGTERM
// drains it and prints the final stats.
func TestPrimaryServesDrainsAndReports(t *testing.T) {
	d, addr := start(t)
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("the daemon logged its flag, not its listener: %q", addr)
	}
	cl := dial(t, addr)
	mustExec(t, cl, "CREATE TABLE fast (id INT, v TEXT, PRIMARY KEY(id))")
	mustExec(t, cl, "CREATE TABLE slow (id INT, v TEXT, PRIMARY KEY(id)) WITH ENGINE=innodb")
	mustExec(t, cl, "INSERT INTO fast VALUES (1, 'a')")
	mustExec(t, cl, "INSERT INTO slow VALUES (1, 'b')")
	cl.Close()

	err, log := d.term()
	if err != nil {
		t.Fatalf("serve returned %v\n%s", err, log)
	}
	for _, want := range []string{"hiserver: draining...", "hiserver: final stats: commits=1 ", "server.requests.", "hiserver: drained, bye"} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
}

func TestAdminPlaneOfAPrimary(t *testing.T) {
	d, _ := start(t, "-http", "127.0.0.1:0")
	adm := d.await(`admin plane on (http://\S+)`)
	if code, body := request(t, "GET", adm+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := request(t, "GET", adm+"/statusz")
	var statusz struct {
		Info   map[string]string
		Status map[string]any
	}
	if err := json.Unmarshal([]byte(body), &statusz); code != 200 || err != nil {
		t.Fatalf("/statusz = %d, %v:\n%s", code, err, body)
	}
	if statusz.Status["role"] != "primary" || statusz.Status["epoch"] != 1.0 || statusz.Info["name"] != "primary" {
		t.Fatalf("/statusz = %+v", statusz)
	}
	if _, ok := statusz.Status["indoubt_2pc"]; !ok {
		t.Fatalf("/statusz lacks indoubt_2pc: %+v", statusz.Status)
	}
	if code, _ := request(t, "POST", adm+"/promote"); code != 404 {
		t.Fatalf("POST /promote on a process born primary = %d, want 404", code)
	}
}

// TestReplicaFollowsThenTakesOver: a -replica-of process serves what the
// primary wrote, and after POST /promote takes writes and is healthy -- with
// a -ready-max-lag that a node still judging itself by its last poll as a
// replica could trip.
func TestReplicaFollowsThenTakesOver(t *testing.T) {
	p, paddr := start(t)
	pcl := dial(t, paddr)
	mustExec(t, pcl, "CREATE TABLE kv (k INT, v TEXT, PRIMARY KEY(k))")

	r, raddr := start(t, "-replica-of", paddr, "-replica-poll", "2ms", "-http", "127.0.0.1:0", "-ready-max-lag", "1")
	adm := r.await(`admin plane on (http://\S+)`)
	mustExec(t, pcl, "INSERT INTO kv VALUES (1, 'from the primary')")

	rcl := dial(t, raddr)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		res, err := rcl.Exec("SELECT v FROM kv WHERE k = 1")
		if err == nil && len(res.Rows) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the replica never served the primary's row: %v %+v", err, res)
		}
	}
	if _, err := rcl.Exec("INSERT INTO kv VALUES (2, 'too early')"); err == nil {
		t.Fatal("a replica took a write")
	}

	pcl.Close()
	if err, log := p.term(); err != nil {
		t.Fatalf("primary: %v\n%s", err, log)
	}
	if code, body := request(t, "POST", adm+"/promote"); code != 200 || !strings.Contains(body, `"epoch": 2`) {
		t.Fatalf("POST /promote = %d %q", code, body)
	}
	mustExec(t, dial(t, raddr), "INSERT INTO kv VALUES (2, 'on the promoted node')")
	if code, body := request(t, "GET", adm+"/healthz"); code != 200 {
		t.Fatalf("/healthz after promotion = %d %q", code, body)
	}
	if _, body := request(t, "GET", adm+"/statusz"); !strings.Contains(body, `"role": "primary (promoted)"`) || strings.Contains(body, `"lag_csn"`) {
		t.Fatalf("/statusz after promotion:\n%s", body)
	}
	// SIGUSR1 is the same door: idempotent.
	r.signals <- syscall.SIGUSR1
	r.await(`(promoted to primary at epoch 2)`)
}

func TestShardMemberAnswersItsMap(t *testing.T) {
	_, addr := start(t, "-shard-map", "10.0.0.1:7609, 10.0.0.2:7609", "-shard-id", "1")
	s, err := dial(t, addr).Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sm, err := s.ShardMap(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sm.SelfID != 1 || sm.Version != 1 || len(sm.Addrs) != 2 || sm.Addrs[0] != "10.0.0.1:7609" || sm.Addrs[1] != "10.0.0.2:7609" {
		t.Fatalf("OpShardMap = %+v", sm)
	}
}

// TestBadInvocations: what the daemon refuses before it serves, it refuses
// with exit 1 and the reason (2 for a flag it does not have).
func TestBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-shard-map", "a,b", "-shard-id", "5"}, 1, "hiserver: -shard-id 5 out of range for 2-shard map\n"},
		{[]string{"-shard-map", "a,b", "-replica-of", "127.0.0.1:1"}, 1, "hiserver: -shard-map is a primary flag; replicas inherit the map from their primary\n"},
		{[]string{"-peer-admin", "x="}, 1, "hiserver: peer-admin: empty address in \"x=\"\n"},
		{[]string{"-shard-map", "@missing-file"}, 1, "hiserver: read shard map: open missing-file: no such file or directory\n"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
	} {
		var stderr bytes.Buffer
		code := run(tc.args, nil, io.Discard, &stderr)
		if code != tc.code || !strings.HasPrefix(stderr.String(), tc.want) {
			t.Errorf("hiserver %s: exit %d, stderr %q; want exit %d, %q", strings.Join(tc.args, " "), code, &stderr, tc.code, tc.want)
		}
	}
}
