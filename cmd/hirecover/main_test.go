package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCrashAndRecover runs the whole demonstration small, with and without
// the checkpoint: it exits 0, prints every phase of each recovery in the
// sweep, and the recovered state passes the TPC-C consistency checks.
func TestCrashAndRecover(t *testing.T) {
	for _, extra := range [][]string{nil, {"-checkpoint"}} {
		t.Run(strings.Join(extra, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-warehouses", "1", "-threads", "2", "-run", "200ms", "-max-replay", "2"}, extra...)
			if code := run(args, nil, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
			}
			out := stdout.String()
			want := []string{"CRASH.", "tail replay", "image pass", "tail keys", "image/tail keys", "\n1  ", "\n2  ",
				"recovered state passes TPC-C consistency checks"}
			if extra != nil {
				want = append(want, "dataless checkpoint at CSN")
			}
			for _, w := range want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			if strings.Contains(out, "dataless checkpoint") != (extra != nil) {
				t.Errorf("checkpoint line without -checkpoint:\n%s", out)
			}
		})
	}
}

func TestBadFlagExits2(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, nil, &bytes.Buffer{}, &stderr); code != 2 || !strings.Contains(stderr.String(), "no-such-flag") {
		t.Fatalf("exit %d, stderr %q", code, &stderr)
	}
}
