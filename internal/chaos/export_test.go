package chaos

import (
	"os"
	"sort"
	"strconv"
)

// Float64 returns a draw in [0,1).
func (r *Rand) Float64() float64 { return unitFloat(r.Uint64()) }

// SeedFromEnv reads CHAOS_SEED (decimal or 0x hex). ok is false when the
// variable is unset or unparsable.
func SeedFromEnv() (seed uint64, ok bool) {
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		return 0, false
	}
	n, err := strconv.ParseUint(v, 0, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// SiteDoc returns a site's registered description.
func SiteDoc(name string) (string, bool) {
	catalogMu.Lock()
	defer catalogMu.Unlock()
	d, ok := catalog[name]
	return d, ok
}

// Sites returns the registered site names, sorted (for docs and tests).
func Sites() []string {
	catalogMu.Lock()
	defer catalogMu.Unlock()
	out := make([]string, 0, len(catalog))
	for n := range catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
