package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
)

// timedWindows is the number of measured windows; one more window of the
// same size runs first as warm-up and is not measured.
const timedWindows = 20

// checkpointAfter is the timed window after which every workload takes one
// Engine.Checkpoint(), outside the window timers: recovery is then a
// checkpoint load plus the replay of the last quarter of the run.
const checkpointAfter = 15

// driver executes one client's ops. Op j is the client's j-th op of the
// whole run, warm-up included. op returns the column bytes of the rows its
// acked statements wrote.
type driver interface {
	op(j int) (userBytes int, err error)
	close()
	traceWith(t *tracer)      // the traced phase attaches a span log
	session() *client.Session // the wire session to trace; nil in process
}

// phase is what one timed phase (warm-up + 20 windows) measured.
type phase struct {
	opsPerWindow int       // over all clients
	winWallS     []float64 // per timed window
	winCPUS      []float64 // getrusage user+sys per timed window
	lat          []int64   // per-op wall ns of every acked timed op, sorted
	attempted    int64     // timed ops attempted
	failed       int64
	userBytes    int64 // column bytes of acked timed writes
	logBytes     int64 // Engine.Log().TotalBytes() delta, checkpoint rotation included
	mallocs      uint64
	gcCycles     uint32
	gcPauseNS    uint64
	heapMB       float64
	checkpointS  float64
}

// winRates is each window's throughput in ops/s.
func (p *phase) winRates() []float64 {
	r := make([]float64, len(p.winWallS))
	for i, s := range p.winWallS {
		r[i] = float64(p.opsPerWindow) / s
	}
	return r
}

// opsPerS is the phase's throughput: a window's ops over the interquartile
// mean of the window times.
func (p *phase) opsPerS() float64 { return float64(p.opsPerWindow) / midMean(p.winWallS) }

// opP50US is the median of every timed op's wall time, recorded exactly.
func (p *phase) opP50US() float64 { return float64(quantileSorted(p.lat, 0.5)) / 1e3 }

// cpuUSPerOp is the interquartile mean over windows of process CPU time
// (user+sys: server, log and Go GC threads included) per op.
func (p *phase) cpuUSPerOp() float64 { return midMean(p.winCPUS) * 1e6 / float64(p.opsPerWindow) }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runPhase runs the warm-up window and the timed windows. Work is fixed:
// every window is opsPerWindow ops split evenly over the clients, whatever
// time that takes. Clients meet at a barrier between windows, where wall
// and CPU clocks are read. firstOp is each client's starting op index (a
// second phase on the same deployment continues the key streams). m
// records what was acked.
func runPhase(e *env, m *model, drivers []driver, firstOp, opsPerWindow int) (*phase, error) {
	perClient := opsPerWindow / len(drivers)
	if perClient < 1 {
		return nil, fmt.Errorf("window of %d ops is smaller than %d clients", opsPerWindow, len(drivers))
	}
	p := &phase{opsPerWindow: perClient * len(drivers)}
	lat := make([][]int64, len(drivers))
	for c := range lat {
		lat[c] = make([]int64, 0, perClient*timedWindows)
	}
	var failed, userBytes [nClients]int64

	window := func(w int, timed bool) {
		var wg sync.WaitGroup
		for c, d := range drivers {
			wg.Add(1)
			go func(c int, d driver) {
				defer wg.Done()
				j0 := firstOp + w*perClient
				for j := j0; j < j0+perClient; j++ {
					t0 := time.Now()
					n, err := d.op(j)
					dur := time.Since(t0)
					if err != nil {
						m.opFailed(c, j, err)
						if timed {
							failed[c]++
						}
						continue
					}
					m.opDone(c, j)
					if timed {
						lat[c] = append(lat[c], int64(dur))
						userBytes[c] += int64(n)
					}
				}
			}(c, d)
		}
		wg.Wait()
	}

	window(0, false)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	log0 := e.engine.Log().TotalBytes()
	for w := 1; w <= timedWindows; w++ {
		cpu0, t0 := cpuSeconds(), time.Now()
		window(w, true)
		p.winWallS = append(p.winWallS, time.Since(t0).Seconds())
		p.winCPUS = append(p.winCPUS, cpuSeconds()-cpu0)
		if w == checkpointAfter {
			t0 := time.Now()
			if _, err := e.engine.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			p.checkpointS = time.Since(t0).Seconds()
		}
	}
	runtime.ReadMemStats(&ms1)
	p.logBytes = e.engine.Log().TotalBytes() - log0
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.heapMB = float64(ms1.HeapAlloc) / (1 << 20)

	for c := range drivers {
		p.lat = append(p.lat, lat[c]...)
		p.failed += failed[c]
		p.userBytes += userBytes[c]
	}
	p.attempted = int64(p.opsPerWindow) * timedWindows
	slices.Sort(p.lat)
	return p, nil
}

// recovery is the repeated crash recoveries' outcome.
type recovery struct {
	wallS []float64
	stats *core.RecoveryStats // of the recovery with the median wall time
}

// crashAndRecover closes the deployment -- nothing is in flight, so what
// the log holds is exactly what was acked -- then recovers it `times` times
// from the same SRSS and checks every recovered engine against the model.
func crashAndRecover(e *env, m *model, times int) (*recovery, error) {
	e.close()
	type one struct {
		wall  float64
		stats *core.RecoveryStats
	}
	var runs []one
	for i := 0; i < times; i++ {
		runtime.GC()
		t0 := time.Now()
		eng, st, err := core.RecoverByName(engineConfig(e.svc), core.RecoverOptions{ReplayThreads: replayThreads})
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i+1, err)
		}
		err = m.verify(eng)
		eng.Close()
		if err != nil {
			return nil, fmt.Errorf("after recovery %d: %w", i+1, err)
		}
		runs = append(runs, one{wall, st})
	}
	r := &recovery{}
	for _, x := range runs {
		r.wallS = append(r.wallS, x.wall)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].wall < runs[j].wall })
	r.stats = runs[len(runs)/2].stats
	return r, nil
}

// spinMS times a fixed CPU loop (about 200 ms on the reference host). It is
// read before and after a workload: the program cannot change it, so a
// difference between the two readings is the host, not the code.
func spinMS() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var spinSink uint64
