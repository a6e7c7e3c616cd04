package hiengine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const workflow = ".github/workflows/ci.yml"

// TestCIRunPatternsNameTests: every |-alternative of a `go test -run`
// pattern in the CI workflow (other than ^$) matches a Test or Fuzz function
// of the packages that command runs. `go test -run 'A|Gone'` passes
// silently, so without this a deleted or renamed test drops out of the step
// that was meant to run it without notice.
func TestCIRunPatternsNameTests(t *testing.T) {
	checked := 0
	for _, c := range ciGoTests(t) {
		if c.pattern == "" || c.pattern == "^$" {
			continue
		}
		var names []string
		for _, pkg := range c.pkgs {
			names = append(names, testFuncs(t, filepath.Join(c.dir, pkg))...)
		}
		for _, alt := range splitAlternatives(strings.Split(c.pattern, "/")[0]) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s:%d: -run alternative %q: %v", workflow, c.line, alt, err)
				continue
			}
			found := false
			for _, name := range names {
				found = found || re.MatchString(name)
			}
			if !found {
				t.Errorf("%s:%d: -run alternative %q names no test in %s", workflow, c.line, alt, strings.Join(c.pkgs, " "))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("no -run pattern found in %s", workflow)
	}
}

// TestCIRacesTheWholeTree: the workflow runs `go test -race ./...` once, so
// every test runs under the race detector without a list naming it. Any
// other -race command repeats tests (-count >= 2): at -count=1 it reruns
// what the whole-tree run already ran. A non-race command is `go test ./...`
// (the root module's or benchmark/'s) or a fuzz smoke, since `go test ./...`
// runs every test once without -race.
func TestCIRacesTheWholeTree(t *testing.T) {
	whole := 0
	for _, c := range ciGoTests(t) {
		tree := c.pattern == "" && len(c.pkgs) == 1 && c.pkgs[0] == "./..."
		switch {
		case c.race && tree && c.count == 1:
			whole++
		case c.race && c.count < 2:
			t.Errorf("%s:%d: a -race command at -count=%d reruns tests `go test -race ./...` runs; repeat them (-count >= 2) or delete it", workflow, c.line, c.count)
		case !c.race && !tree && !c.fuzz:
			t.Errorf("%s:%d: a non-race command reruns tests `go test ./...` runs; delete it", workflow, c.line)
		}
	}
	if whole != 1 {
		t.Errorf("%s runs `go test -race ./...` %d times, want once", workflow, whole)
	}
}

// goTest is one `go test` command of the workflow.
type goTest struct {
	line    int    // in the workflow
	dir     string // it runs in, relative to the repository
	pattern string // -run
	pkgs    []string
	count   int
	race    bool
	fuzz    bool
}

// ciGoTests parses the `go test` commands out of the workflow, one command
// per line or per part of a line split at && and ;.
func ciGoTests(t *testing.T) []goTest {
	t.Helper()
	src, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []goTest
	for n, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		dir := "."
		for _, cmd := range regexp.MustCompile(`&&|;`).Split(line, -1) {
			words := shellWords(cmd)
			if i := indexOf(words, "cd"); i >= 0 && i+1 < len(words) {
				dir = filepath.Join(dir, words[i+1])
			}
			i := indexOf(words, "go")
			if i < 0 || i+1 >= len(words) || words[i+1] != "test" {
				continue
			}
			c := goTestArgs(t, words[i+2:])
			c.line, c.dir = n+1, dir
			cmds = append(cmds, c)
		}
	}
	if len(cmds) == 0 {
		t.Fatalf("no go test command found in %s", workflow)
	}
	return cmds
}

// goTestArgs parses a `go test` command's words (after "test").
func goTestArgs(t *testing.T, words []string) goTest {
	c := goTest{count: 1}
	valued := map[string]bool{"-run": true, "-count": true, "-fuzz": true, "-fuzztime": true}
	for i := 0; i < len(words); i++ {
		flag, val, hasVal := strings.Cut(words[i], "=")
		if !hasVal && valued[flag] && i+1 < len(words) {
			val, hasVal = words[i+1], true
			i++
		}
		switch {
		case flag == "-run":
			c.pattern = val
		case flag == "-count":
			n, err := strconv.Atoi(val)
			if err != nil {
				t.Fatalf("-count %q: %v", val, err)
			}
			c.count = n
		case flag == "-race":
			c.race = true
		case flag == "-fuzz":
			c.fuzz = true
		case !strings.HasPrefix(flag, "-"):
			c.pkgs = append(c.pkgs, words[i])
		}
	}
	if len(c.pkgs) == 0 {
		c.pkgs = []string{"."}
	}
	return c
}

// testFuncs lists the Test and Fuzz functions declared in the test files of
// the package in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// splitAlternatives splits a regular expression at the | outside any group.
func splitAlternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range re {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}

// shellWords splits a command line into words and drops its quotes (no
// quoted argument in the workflow holds a space).
func shellWords(s string) []string {
	return strings.Fields(strings.NewReplacer("'", "", `"`, "").Replace(s))
}

func indexOf(words []string, w string) int {
	for i, x := range words {
		if x == w {
			return i
		}
	}
	return -1
}
