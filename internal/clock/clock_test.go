package clock

import (
	"sync"
	"testing"
	"time"

	"hiengine/internal/delay"
)

func TestCounterMonotonicUnique(t *testing.T) {
	c := NewCounter(0)
	const workers, per = 8, 1000
	var mu sync.Mutex
	seen := make(map[CSN]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]CSN, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, c.Next())
			}
			mu.Lock()
			for _, csn := range local {
				if seen[csn] {
					t.Errorf("duplicate CSN %d", csn)
				}
				seen[csn] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if got := c.Now(); got != workers*per {
		t.Fatalf("Now = %d, want %d", got, workers*per)
	}
}

func TestCounterNowDoesNotAdvance(t *testing.T) {
	c := NewCounter(5)
	if c.Now() != 5 || c.Now() != 5 {
		t.Fatal("Now advanced the counter")
	}
	if c.Next() != 6 {
		t.Fatal("Next did not advance from 5")
	}
}

func TestCounterAdvanceTo(t *testing.T) {
	c := NewCounter(10)
	c.AdvanceTo(100)
	if c.Now() != 100 {
		t.Fatalf("AdvanceTo(100): Now = %d", c.Now())
	}
	c.AdvanceTo(50) // must not regress
	if c.Now() != 100 {
		t.Fatalf("AdvanceTo(50) regressed to %d", c.Now())
	}
}

func TestLogicalClockChargesRDMA(t *testing.T) {
	var w delay.CountingWaiter
	m := &delay.Model{RDMAFetchAdd: 13 * time.Microsecond}
	lc := NewLogicalClock(m, &w, 0)
	lc.Next()
	lc.Next()
	lc.now()
	if got := w.Total(); got != 39*time.Microsecond {
		t.Fatalf("charged %v, want 39µs (3 RDMA ops)", got)
	}
	if got := lc.now(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}

func TestLogicalClockNICCapQueues(t *testing.T) {
	var w delay.CountingWaiter
	lc := NewLogicalClock(delay.Zero(), &w, 10) // tiny cap: 10 grants/sec
	for i := 0; i < 15; i++ {
		lc.Next()
	}
	// 5 grants over the cap must have been charged queueing delay.
	if w.Total() == 0 {
		t.Fatal("saturated NIC charged no queueing delay")
	}
}

func TestGlobalClockMonotone(t *testing.T) {
	g := NewGlobalClock(0, &delay.CountingWaiter{})
	prev := g.now()
	for i := 0; i < 10000; i++ {
		cur := g.now()
		if cur <= prev {
			t.Fatalf("timestamp regressed: %d after %d", cur, prev)
		}
		prev = cur
	}
}

func TestGlobalClockCommitWait(t *testing.T) {
	var w delay.CountingWaiter
	eps := 10 * time.Microsecond
	g := NewGlobalClock(eps, &w)
	g.Next()
	g.Next()
	if got := w.Total(); got != 2*eps {
		t.Fatalf("commit wait charged %v, want %v", got, 2*eps)
	}
}

func TestGlobalClockFasterThanLogicalAtPaperParams(t *testing.T) {
	// Section 5.3: global clock grant (epsilon 10-20µs) beats the logical
	// clock's ~40µs RDMA grant at 3 nodes. Validate via charged latency.
	var wl, wg delay.CountingWaiter
	m := &delay.Model{RDMAFetchAdd: 40 * time.Microsecond}
	lc := NewLogicalClock(m, &wl, 0)
	gc := NewGlobalClock(20*time.Microsecond, &wg)
	for i := 0; i < 100; i++ {
		lc.Next()
		gc.Next()
	}
	if wg.Total()*2 > wl.Total() {
		t.Fatalf("global clock (%v) not ~2x faster than logical (%v)", wg.Total(), wl.Total())
	}
}

func TestSourcesImplementInterface(t *testing.T) {
	var _ Source = NewCounter(0)
	var _ Source = NewLogicalClock(delay.Zero(), &delay.CountingWaiter{}, 0)
	var _ Source = NewGlobalClock(0, &delay.CountingWaiter{})
}
