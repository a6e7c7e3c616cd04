// Package chaos is HiEngine's deterministic fault-injection subsystem.
//
// Components (srss, wal, core) register named injection sites -- crash
// points at commit-pipeline stages, torn replicated writes on the last
// append, checkpoint/destage crashes, transient slowness -- and a seeded
// Engine decides, reproducibly, which hits of which sites fire which
// faults. The whole schedule is a pure function of the seed: the Nth hit
// of a site fires (or not) regardless of goroutine interleaving, so any
// torture-harness failure replays from its seed alone.
//
// Fault model. A "crash" models fail-stop process death: the Engine
// latches a crashed state and every subsequent instrumented operation
// (appends, reads, commits) fails with ErrCrashed until the harness calls
// ClearCrash -- exactly the window between a real crash and the restart
// that runs recovery. A "tear" models death in the middle of a replicated
// append: each replica keeps an independently chosen prefix of the data
// (divergent across replicas), the PLog seals, and the crash latches. A
// "delay" models transient slowness (slow node, congested link) without
// killing anything.
//
// The Engine is injected at the bottom of the stack (srss.Config.Chaos)
// and shared upward: wal and core reach it through the SRSS service, so a
// single seed governs the whole deployment. A nil *Engine is inert: every
// method is nil-receiver safe and free, so production paths pay one
// predictable branch.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCrashed is the simulated-crash error. Everything an instrumented
// component returns after a crash point fires wraps it; harnesses detect
// the crash with errors.Is and restart via recovery.
var ErrCrashed = errors.New("chaos: simulated crash")

// ErrInjected is the transient-fault error: a Fault rule fired at a site.
// Unlike ErrCrashed it does NOT latch -- only the faulted operation fails
// (a rejected accept, a dropped connection), the process lives on. Callers
// scope the blast radius: the network layer fails one connection, never
// the server.
var ErrInjected = errors.New("chaos: injected fault")

// Action is what a rule does when it fires.
type Action uint8

const (
	// Crash latches the crashed state: this and every later instrumented
	// operation fails with ErrCrashed until ClearCrash.
	Crash Action = iota
	// Tear applies only to replicated-append sites: the write is torn
	// (divergent prefixes across replicas) and the crash latches.
	Tear
	// Delay injects extra latency at the site and continues.
	Delay
	// Fault fails the single operation with ErrInjected without latching
	// a crash: the component degrades (drops a connection, rejects an
	// accept) but the process keeps serving.
	Fault
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Crash:
		return "crash"
	case Tear:
		return "tear"
	case Delay:
		return "delay"
	case Fault:
		return "fault"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Rule arms one fault at one site. Firing discipline: if OnHit > 0 the
// rule fires exactly at that 1-based hit index of the site; otherwise it
// fires pseudo-randomly per hit with probability Prob (deterministic in
// (seed, site, hit index)). Count caps the total number of fires
// (0 = unlimited; OnHit rules fire at most once regardless).
type Rule struct {
	Site   string
	Action Action
	OnHit  int64
	Prob   float64
	Delay  time.Duration // Delay action only
	Count  int64
}

// --- site catalog --------------------------------------------------------

var (
	catalogMu sync.Mutex
	catalog   = map[string]string{}
)

// RegisterSite records a site name and its one-line semantics in the
// global catalog. Components call it from init(); duplicate registration
// with a different description panics (two call points disagreeing about
// a site's meaning is a bug).
func RegisterSite(name, desc string) {
	catalogMu.Lock()
	defer catalogMu.Unlock()
	if prev, ok := catalog[name]; ok && prev != desc {
		panic(fmt.Sprintf("chaos: site %q re-registered with different semantics", name))
	}
	catalog[name] = desc
}

// --- deterministic randomness --------------------------------------------

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mix used
// both as the per-decision hash and as the step function of derived RNG
// streams. Decisions hash (seed, site, hit index) so they are independent
// of cross-site interleaving.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a site name.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// unitFloat maps a 64-bit draw to [0,1).
func unitFloat(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// Rand is a deterministic RNG stream derived from the engine seed and a
// stream name. It is NOT safe for concurrent use; harness loops own one.
type Rand struct{ state uint64 }

// NewRand derives a standalone stream (usable without an Engine).
func NewRand(seed uint64, stream string) *Rand {
	return &Rand{state: splitmix64(seed ^ fnv64(stream))}
}

// Uint64 returns the next draw.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Intn returns a draw in [0,n). n must be > 0.
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// --- engine ---------------------------------------------------------------

// siteState is per-site runtime state: a hit counter driving decisions and
// a fired counter for assertions/observability.
type siteState struct {
	hits  atomic.Int64
	fired atomic.Int64
}

// Engine is one seeded fault schedule. All methods are safe for concurrent
// use and safe on a nil receiver (inert).
type Engine struct {
	seed    uint64
	crashed atomic.Bool

	mu    sync.RWMutex
	rules map[string][]*armedRule
	sites map[string]*siteState
}

type armedRule struct {
	Rule
	fires atomic.Int64
}

// New creates an engine with the given seed.
func New(seed uint64) *Engine {
	return &Engine{
		seed:  seed,
		rules: make(map[string][]*armedRule),
		sites: make(map[string]*siteState),
	}
}

// Seed returns the engine's seed (0 for nil).
func (e *Engine) Seed() uint64 {
	if e == nil {
		return 0
	}
	return e.seed
}

// Arm adds a rule. Arming is cheap and may happen mid-run (tests arm an
// OnHit rule relative to the current hit count to target one operation).
func (e *Engine) Arm(r Rule) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.rules[r.Site] = append(e.rules[r.Site], &armedRule{Rule: r})
	e.mu.Unlock()
}

// Disarm removes every rule armed at a site.
func (e *Engine) Disarm(site string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	delete(e.rules, site)
	e.mu.Unlock()
}

// Rand derives a deterministic RNG stream from the engine seed.
func (e *Engine) Rand(stream string) *Rand {
	if e == nil {
		return NewRand(0, stream)
	}
	return NewRand(e.seed, stream)
}

func (e *Engine) site(name string) *siteState {
	e.mu.RLock()
	s := e.sites[name]
	e.mu.RUnlock()
	if s != nil {
		return s
	}
	e.mu.Lock()
	if s = e.sites[name]; s == nil {
		s = &siteState{}
		e.sites[name] = s
	}
	e.mu.Unlock()
	return s
}

// decide evaluates the site's rules against one hit and returns the first
// rule that fires (nil if none).
func (e *Engine) decide(site string, hit int64) *armedRule {
	e.mu.RLock()
	rules := e.rules[site]
	e.mu.RUnlock()
	for i, r := range rules {
		if r.OnHit > 0 {
			if hit == r.OnHit && r.fires.Load() == 0 {
				r.fires.Add(1)
				return r
			}
			continue
		}
		if r.Prob <= 0 {
			continue
		}
		if r.Count > 0 && r.fires.Load() >= r.Count {
			continue
		}
		u := splitmix64(e.seed ^ fnv64(site) ^ uint64(hit)*0x9e3779b97f4a7c15 ^ uint64(i)<<56)
		if unitFloat(u) < r.Prob {
			r.fires.Add(1)
			return r
		}
	}
	return nil
}

// Check is the generic injection point. It counts a hit of the site, then:
// if the engine has already crashed, returns ErrCrashed immediately; if a
// Delay rule fires, sleeps and returns nil; if a Crash rule fires, latches
// the crash and returns ErrCrashed; if a Fault rule fires, returns
// ErrInjected without latching. Tear rules never fire through Check
// (they need the replica fan-out of TearPlan). Nil engines return nil.
func (e *Engine) Check(site string) error {
	if e == nil {
		return nil
	}
	if e.crashed.Load() {
		return fmt.Errorf("%w (latched, at %s)", ErrCrashed, site)
	}
	st := e.site(site)
	hit := st.hits.Add(1)
	r := e.decide(site, hit)
	if r == nil {
		return nil
	}
	switch r.Action {
	case Delay:
		st.fired.Add(1)
		if r.Delay > 0 {
			time.Sleep(r.Delay)
		}
		return nil
	case Crash:
		st.fired.Add(1)
		e.crashed.Store(true)
		return fmt.Errorf("%w (at %s, hit %d)", ErrCrashed, site, hit)
	case Fault:
		st.fired.Add(1)
		return fmt.Errorf("%w (at %s, hit %d)", ErrInjected, site, hit)
	default:
		return nil // Tear rules are evaluated by TearPlan only
	}
}

// TearPlan is the injection point for replicated appends. It counts a hit
// of the site; if a Tear rule fires it latches the crash and returns the
// per-replica cut lengths: replica i persists data[:cuts[i]]. At least one
// replica is cut short of n (the write is genuinely torn) and cuts may
// diverge across replicas. For n < 2 a firing tear degenerates to cuts of
// all zero (death before any byte landed). ok is false when nothing fires.
func (e *Engine) TearPlan(site string, n, replicas int) (cuts []int, ok bool) {
	if e == nil || replicas <= 0 {
		return nil, false
	}
	if e.crashed.Load() {
		return nil, false // Check at the call site reports the latched crash
	}
	st := e.site(site)
	hit := st.hits.Add(1)
	r := e.decide(site, hit)
	if r == nil || r.Action != Tear {
		return nil, false
	}
	st.fired.Add(1)
	e.crashed.Store(true)
	cuts = make([]int, replicas)
	if n < 2 {
		return cuts, true
	}
	// Deterministic cut pattern from (seed, site, hit): the longest
	// surviving prefix is in [1, n-1]; each replica keeps a prefix in
	// [0, maxCut], with at least one replica holding maxCut so the torn
	// extent is well defined.
	h := splitmix64(e.seed ^ fnv64(site) ^ uint64(hit)*0xd1342543de82ef95)
	maxCut := 1 + int(h%uint64(n-1))
	longest := int(splitmix64(h) % uint64(replicas))
	for i := range cuts {
		if i == longest {
			cuts[i] = maxCut
			continue
		}
		cuts[i] = int(splitmix64(h+uint64(i)+1) % uint64(maxCut+1))
	}
	return cuts, true
}

// Crashed reports whether a crash has latched.
func (e *Engine) Crashed() bool {
	if e == nil {
		return false
	}
	return e.crashed.Load()
}

// ClearCrash clears the latched crash: the harness calls it right before
// running recovery ("the process restarted").
func (e *Engine) ClearCrash() {
	if e == nil {
		return
	}
	e.crashed.Store(false)
}

// Hits returns how many times a site was reached.
func (e *Engine) Hits(site string) int64 {
	if e == nil {
		return 0
	}
	e.mu.RLock()
	s := e.sites[site]
	e.mu.RUnlock()
	if s == nil {
		return 0
	}
	return s.hits.Load()
}

// Fired returns how many faults fired at a site.
func (e *Engine) Fired(site string) int64 {
	if e == nil {
		return 0
	}
	e.mu.RLock()
	s := e.sites[site]
	e.mu.RUnlock()
	if s == nil {
		return 0
	}
	return s.fired.Load()
}
