package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hiengine/internal/bench"
)

// names lists dir's entries.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestNothingWrittenWithoutOut: an experiment writes into the working
// directory only when -out asks it to, and then exactly its one document.
func TestNothingWrittenWithoutOut(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, exp := range []string{"table1", "scan"} {
		var stderr bytes.Buffer
		if code := run([]string{"-exp", exp, "-quick"}, io.Discard, &stderr); code != 0 {
			t.Fatalf("-exp %s -quick exited %d: %s", exp, code, &stderr)
		}
		if left := names(t, dir); len(left) != 0 {
			t.Fatalf("-exp %s without -out left %v in the working directory", exp, left)
		}
	}
	for _, exp := range []string{"table1", "scan"} {
		var stderr bytes.Buffer
		if code := run([]string{"-exp", exp, "-quick", "-out", exp + "-out"}, io.Discard, &stderr); code != 0 {
			t.Fatalf("-exp %s -quick -out exited %d: %s", exp, code, &stderr)
		}
		file := "BENCH_" + exp + ".json"
		if got := names(t, filepath.Join(dir, exp+"-out")); !reflect.DeepEqual(got, []string{file}) {
			t.Fatalf("-exp %s -out wrote %v, want exactly %s", exp, got, file)
		}
		raw, err := os.ReadFile(filepath.Join(dir, exp+"-out", file))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			SchemaVersion int    `json:"schema_version"`
			ID            string `json:"id"`
			Series        []bench.Series
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if doc.SchemaVersion != 4 || doc.ID != exp || len(doc.Series) == 0 || len(doc.Series[0].Values) == 0 {
			t.Fatalf("%s: schema_version %d, id %q, series %+v", file, doc.SchemaVersion, doc.ID, doc.Series)
		}
	}
	if got := names(t, dir); !reflect.DeepEqual(got, []string{"scan-out", "table1-out"}) {
		t.Fatalf("working directory holds %v beside the -out directories", got)
	}
}

func TestUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "ghost"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "-list") {
		t.Fatalf("unknown -exp exited %d saying %q", code, &stderr)
	}
	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var listed, want []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	for _, r := range bench.All() {
		want = append(want, r.ID)
	}
	if len(want) != 12 || !reflect.DeepEqual(listed, want) {
		t.Fatalf("-list printed %v, want the twelve ids %v", listed, want)
	}
}
