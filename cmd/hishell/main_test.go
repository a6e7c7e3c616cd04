package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/node"
	"hiengine/internal/srss"
)

// script is one REPL session: DDL, a write, a read, a maintenance command,
// a line that is not SQL (an error, not an exit), quit; the line after \q is
// never read.
const script = `CREATE TABLE t (id INT, v TEXT, PRIMARY KEY(id))
INSERT INTO t VALUES (1, 'x')
SELECT * FROM t WHERE id = 1
\checkpoint
this is not sql
\q
INSERT INTO t VALUES (2, 'after quit')
`

func shell(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, strings.NewReader(script), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	out := stdout.String()
	for _, want := range []string{"OK\n", "OK, 1 affected\n", "1 | \"x\"\n(1 rows)\n", "error: ", "unsupported statement"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "hiengine> "); n != 6 {
		t.Errorf("%d prompts, want 6 (one per line up to \\q):\n%s", n, out)
	}
	return out
}

func TestScriptInProcess(t *testing.T) {
	out := shell(t)
	for _, want := range []string{"engines: hiengine (default), innodb", "checkpoint at CSN "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestScriptAgainstANode(t *testing.T) {
	engine, err := core.Open(core.Config{Service: srss.New(srss.Config{Model: delay.Zero()}), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(engine, ln, node.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	out := shell(t, "-connect", n.Addr())
	for _, want := range []string{"connected to " + n.Addr(), `error: \checkpoint is in-process only`} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if got := engine.Obs().Counter("core.commits").Load(); got != 2 {
		t.Errorf("the node committed %d transactions, want 2 (the table and the row)", got)
	}
}

func TestConnectRefusedExits1(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // nobody listens here now
	var stderr bytes.Buffer
	if code := run([]string{"-connect", ln.Addr().String()}, strings.NewReader(script), &bytes.Buffer{}, &stderr); code != 1 || !strings.HasPrefix(stderr.String(), "hishell:") {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
}
