//go:build race

// Package raceflag tells tests whether the race detector is compiled in.
// Performance-shape and allocation-count assertions are skipped under it:
// its instrumentation multiplies Go-level CPU costs and makes sync.Pool
// drop items at random, swamping what those assertions measure. The code
// under test still runs, for the detector's own coverage.
package raceflag

// Enabled reports whether the race detector is active.
const Enabled = true
