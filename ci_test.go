package hiengine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests: every |-alternative of a `go test -run`
// pattern in the CI workflow (other than ^$) matches a Test or Fuzz function
// of the packages that command runs. `go test -run 'A|Gone'` passes
// silently, so without this a deleted or renamed test drops out of the step
// that was meant to run it without notice.
func TestCIRunPatternsNameTests(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	src, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
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
			pattern, pkgs := goTestArgs(words[i+2:])
			if pattern == "" || pattern == "^$" {
				continue
			}
			var names []string
			for _, pkg := range pkgs {
				names = append(names, testFuncs(t, filepath.Join(dir, pkg))...)
			}
			for _, alt := range splitAlternatives(strings.Split(pattern, "/")[0]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s:%d: -run alternative %q: %v", workflow, n+1, alt, err)
					continue
				}
				found := false
				for _, name := range names {
					found = found || re.MatchString(name)
				}
				if !found {
					t.Errorf("%s:%d: -run alternative %q names no test in %s", workflow, n+1, alt, strings.Join(pkgs, " "))
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no -run pattern found in %s", workflow)
	}
}

// goTestArgs returns the -run pattern and the package arguments of a
// `go test` command's words (after "test").
func goTestArgs(words []string) (pattern string, pkgs []string) {
	valued := map[string]bool{"-run": true, "-count": true, "-fuzz": true, "-fuzztime": true}
	for i := 0; i < len(words); i++ {
		w := words[i]
		switch {
		case strings.HasPrefix(w, "-run="):
			pattern = strings.TrimPrefix(w, "-run=")
		case valued[w] && i+1 < len(words):
			if w == "-run" {
				pattern = words[i+1]
			}
			i++
		case !strings.HasPrefix(w, "-"):
			pkgs = append(pkgs, w)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return pattern, pkgs
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
