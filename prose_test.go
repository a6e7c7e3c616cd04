package hiengine_test

import (
	"os"
	"testing"
)

// proseBudget is the byte size each long prose document may reach. A bound
// only falls: a change that adds text to one of these files deletes as much
// from the same file, and one that shrinks a file lowers its bound.
var proseBudget = map[string]int64{
	"DESIGN.md":                      137_247,
	"EXPERIMENTS.md":                 193_339,
	"CHANGES.md":                     20_046,
	".claude/skills/verify/SKILL.md": 19_543,
	"benchmark/README.md":            29_930,
}

// TestProseBudget holds the long documents to their budgets.
func TestProseBudget(t *testing.T) {
	for name, budget := range proseBudget {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > budget {
			t.Errorf("%s is %d bytes, over its budget of %d: delete as much as was added", name, fi.Size(), budget)
		}
	}
}
