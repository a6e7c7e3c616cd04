package chaos_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hiengine/internal/chaos"
	_ "hiengine/internal/core"
	_ "hiengine/internal/replica"
	_ "hiengine/internal/server"
	_ "hiengine/internal/shard"
	_ "hiengine/internal/srss"
	_ "hiengine/internal/wal"
)

// TestDesignSiteTable: DESIGN.md's "Site registry" table lists exactly the
// registered sites. Every package under internal/ that registers one must be
// imported above, so chaos.Sites() is the whole registry.
func TestDesignSiteTable(t *testing.T) {
	self, err := parser.ParseFile(token.NewFileSet(), "sites_test.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, im := range self.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		linked[path] = true
	}
	err = filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "hiengine/internal/" + filepath.ToSlash(filepath.Dir(path[len("../"):]))
		if bytes.Contains(src, []byte("chaos.RegisterSite(")) && !linked[pkg] {
			t.Errorf("%s registers chaos sites but this test does not import it", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "**Site registry.**")
	if !ok {
		t.Fatal(`DESIGN.md has no "Site registry" paragraph`)
	}
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if site, ok := strings.CutPrefix(line, "| `"); ok {
			table = append(table, site[:strings.IndexByte(site, '`')])
		} else if len(table) > 0 {
			break
		}
	}
	var sites []string
	for _, s := range chaos.Sites() {
		if !strings.HasPrefix(s, "test.") { // TestSiteCatalog's own
			sites = append(sites, s)
		}
	}
	slices.Sort(table)
	if !slices.Equal(table, sites) {
		t.Errorf("DESIGN.md's site table lists\n\t%v\nthe registry holds\n\t%v", table, sites)
	}
}
