package sqlfront

import (
	"container/list"
	"sync"
	"sync/atomic"

	"hiengine/internal/core"
)

// DefaultPlanCacheSize bounds the frontend plan cache when the deployment
// does not choose its own bound.
const DefaultPlanCacheSize = 512

// compiled is one cache entry: the parse/plan/compile work for one SQL
// text, done once (Section 3.3's full-stack code generation). The closure
// is session-free -- it binds parameters and the *executing* session
// straight into engine calls -- so one entry serves every session of the
// frontend. gen stamps the catalog generation the plan was compiled
// against; a plan whose stamp no longer matches the frontend's generation
// is never executed (it may capture dead table handles or stale
// table-to-engine routing, the multi-engine hazard Skeena documents).
type compiled struct {
	nParams int
	gen     uint64
	// verb is "BEGIN", "COMMIT" or "ROLLBACK" for a transaction-control
	// statement, "" for everything else.
	verb string
	// Exactly one of sel (a SELECT) and fn (anything else) is set.
	sel *selectPlan
	fn  func(s *Session, args []core.Value) (*Result, error)
}

// planCache is a size-bounded, SQL-text-keyed LRU of compiled statements.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

type cacheEntry struct {
	sql string
	c   *compiled
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// get returns the cached plan for sql iff it was compiled at generation
// gen. A stale entry (any other generation) is removed and counted as an
// invalidation: lazily discarding on lookup means a DDL never has to walk
// the cache, and a stale plan still can never be returned.
func (pc *planCache) get(sql string, gen uint64) *compiled {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[sql]
	if !ok {
		pc.misses.Add(1)
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.c.gen != gen {
		pc.lru.Remove(el)
		delete(pc.entries, sql)
		pc.invalidations.Add(1)
		pc.misses.Add(1)
		return nil
	}
	pc.lru.MoveToFront(el)
	pc.hits.Add(1)
	return e.c
}

// put inserts (or replaces) the plan for sql, evicting the least recently
// used entry beyond capacity. Only successfully compiled plans are ever
// stored: compile errors (unknown table, bad plan) must re-resolve on
// every attempt, otherwise a statement that fails before CREATE TABLE
// would keep failing after it.
func (pc *planCache) put(sql string, c *compiled) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[sql]; ok {
		el.Value.(*cacheEntry).c = c
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[sql] = pc.lru.PushFront(&cacheEntry{sql: sql, c: c})
	for pc.lru.Len() > pc.cap {
		back := pc.lru.Back()
		pc.lru.Remove(back)
		delete(pc.entries, back.Value.(*cacheEntry).sql)
		pc.evictions.Add(1)
	}
}

// size reports the current entry count.
func (pc *planCache) size() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

// PlanCacheStats is a snapshot of the frontend plan cache counters.
type PlanCacheStats struct {
	Size          int
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
}
