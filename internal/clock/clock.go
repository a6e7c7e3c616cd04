// Package clock provides the timestamp-allocation mechanisms HiEngine uses
// for MVCC ordering: a process-local CSN counter (the standalone mode used by
// the single-master engine), a distributed logical clock modeled as a
// centralized atomic advanced over one-sided RDMA, and a high-precision
// global clock with a bounded time-uncertainty epsilon (Section 5.3).
package clock

import (
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/delay"
)

// CSN is a commit sequence number: a logical timestamp that totally orders
// transaction commits. CSN 0 is reserved ("never"), and the loader uses CSN 1
// for bulk-loaded data.
type CSN = uint64

// Source grants begin timestamps and commit sequence numbers.
type Source interface {
	// Now returns the current timestamp without advancing the clock
	// (transaction begin).
	Now() CSN
	// Next advances the clock and returns a fresh, globally unique
	// timestamp (transaction commit).
	Next() CSN
}

// Counter is the standalone CSN source: a single atomic counter. Now() is a
// load, Next() a fetch-add, exactly as Section 3.5 describes.
type Counter struct {
	csn atomic.Uint64
}

// NewCounter returns a counter whose first Next() call returns start+1.
func NewCounter(start CSN) *Counter {
	c := &Counter{}
	c.csn.Store(start)
	return c
}

// Now implements Source.
func (c *Counter) Now() CSN { return c.csn.Load() }

// Next implements Source.
func (c *Counter) Next() CSN { return c.csn.Add(1) }

// AdvanceTo raises the counter to at least csn. Used by recovery to resume
// allocation above the highest replayed commit.
func (c *Counter) AdvanceTo(csn CSN) {
	for {
		cur := c.csn.Load()
		if cur >= csn || c.csn.CompareAndSwap(cur, csn) {
			return
		}
	}
}

// LogicalClock models the distributed logical clock of Section 5.3: a global
// centralized atomic variable hosted on one node and advanced by every other
// node with a one-sided RDMA fetch-and-add. Each grant therefore pays the
// RDMA round trip, and the hosting NIC caps aggregate grant throughput at
// its packets-per-second limit (the paper: ~1.5M PPS, ~40us average at 3
// nodes and degrading as nodes are added).
type LogicalClock struct {
	counter atomic.Uint64
	model   *delay.Model
	waiter  delay.Waiter

	// NIC packet-per-second cap on the hosting node. Zero disables the cap.
	nicPPS int64

	mu           sync.Mutex
	windowStart  time.Time
	windowGrants int64
}

// NewLogicalClock builds a logical clock over the given latency model.
// nicPPS caps grant throughput (0 = uncapped).
func NewLogicalClock(model *delay.Model, waiter delay.Waiter, nicPPS int64) *LogicalClock {
	if waiter == nil {
		waiter = delay.SleepWaiter{}
	}
	return &LogicalClock{model: model, waiter: waiter, nicPPS: nicPPS}
}

// Now performs a remote read of the counter (one RDMA round trip).
func (l *LogicalClock) Now() CSN {
	l.charge()
	return l.counter.Load()
}

// Next performs a remote fetch-and-add (one RDMA round trip, subject to the
// NIC PPS cap).
func (l *LogicalClock) Next() CSN {
	l.charge()
	return l.counter.Add(1)
}

// charge applies the RDMA latency and, when the NIC is saturated, the
// queueing delay implied by the PPS cap.
func (l *LogicalClock) charge() {
	l.waiter.Wait(l.model.RDMAFetchAdd)
	if l.nicPPS <= 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	if l.windowStart.IsZero() || now.Sub(l.windowStart) >= time.Second {
		l.windowStart = now
		l.windowGrants = 0
	}
	l.windowGrants++
	over := l.windowGrants - l.nicPPS
	l.mu.Unlock()
	if over > 0 {
		// Saturated: each excess packet queues behind the cap.
		l.waiter.Wait(time.Duration(over) * time.Second / time.Duration(l.nicPPS))
	}
}

// GlobalClock models the high-precision synchronized hardware clock of
// Section 5.3. Reading it is local (no network), but every timestamp carries
// an uncertainty bound epsilon; to guarantee external consistency a commit
// must wait out the uncertainty window before its timestamp is exposed
// (Spanner-style commit wait). The paper reports epsilon of 10us with atomic
// clocks and 20us without, about 2x faster than the logical clock and free
// of the NIC bottleneck.
type GlobalClock struct {
	epsilon time.Duration
	waiter  delay.Waiter
	// last ensures timestamps are strictly monotone even if the physical
	// clock is read twice in the same nanosecond.
	last atomic.Uint64
}

// NewGlobalClock builds a global clock with uncertainty epsilon.
func NewGlobalClock(epsilon time.Duration, waiter delay.Waiter) *GlobalClock {
	if waiter == nil {
		waiter = delay.SleepWaiter{}
	}
	return &GlobalClock{epsilon: epsilon, waiter: waiter}
}

// Now returns the current physical timestamp (monotone, nanoseconds).
func (g *GlobalClock) Now() CSN {
	ts := uint64(time.Now().UnixNano())
	for {
		last := g.last.Load()
		if ts <= last {
			ts = last + 1
		}
		if g.last.CompareAndSwap(last, ts) {
			return ts
		}
	}
}

// Next grants a commit timestamp: it reads the physical clock and waits out
// the uncertainty interval so that the timestamp is in the past on every
// node when released.
func (g *GlobalClock) Next() CSN {
	ts := g.Now()
	g.waiter.Wait(g.epsilon)
	return ts
}
