package bench

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/delay"
	"hiengine/internal/obs"
)

// load is one closed-loop run: clients goroutines, each issuing its next
// operation as soon as the previous one returned.
type load struct {
	clients int
	// dur is how long the clients run. A script replaces it with what the
	// experiment does to the system meanwhile (failover kills and promotes):
	// the clients then run until the script returns.
	dur    time.Duration
	script func() error
	// classes is how many latency classes an operation can report (0 = 1).
	classes int
	// tolerate names the errors a client rides out -- a busy refusal, a
	// conflict, an outage: counted, not timed, and the client goes on.
	// Any other error stops that client and fails the run.
	tolerate func(error) bool
}

// op is one client's operation; seq counts that client's calls from 0 and
// the result says which latency class the completed call belongs to.
type op func(seq int64) (class int, err error)

// outcome is what a run measured.
type outcome struct {
	lat       []obs.Histogram // per class; Count is the operations completed
	tolerated atomic.Int64
	elapsed   time.Duration
}

// ops is the operations completed, of every class.
func (o *outcome) ops() (n int64) {
	for i := range o.lat {
		n += o.lat[i].Count()
	}
	return n
}

// rate is the completed operations of every class per second.
func (o *outcome) rate() float64 { return float64(o.ops()) / o.elapsed.Seconds() }

// drive runs l against the operation open builds for each client (its
// session, prepared statements and key range live in that closure). The
// first error that is not tolerated wins.
func drive(l load, open func(client int) (op, error)) (*outcome, error) {
	if l.classes == 0 {
		l.classes = 1
	}
	if l.script == nil {
		l.script = func() error { time.Sleep(l.dur); return nil }
	}
	var (
		out    = &outcome{lat: make([]obs.Histogram, l.classes)}
		stop   atomic.Bool
		wg     sync.WaitGroup
		failed = make(chan error, l.clients) // each client sends at most once
	)
	start := time.Now()
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			do, err := open(c)
			for seq := int64(0); err == nil && !stop.Load(); seq++ {
				t0 := time.Now()
				var class int
				if class, err = do(seq); err == nil {
					out.lat[class].Record(time.Since(t0).Nanoseconds())
				} else if l.tolerate != nil && l.tolerate(err) {
					out.tolerated.Add(1)
					err = nil
				}
			}
			if err != nil {
				failed <- fmt.Errorf("client %d: %w", c, err)
			}
		}(c)
	}
	err := l.script()
	stop.Store(true)
	wg.Wait()
	out.elapsed = time.Since(start)
	select {
	case err = <-failed: // a dead client explains a failed script, not the reverse
	default:
	}
	return out, err
}

// meter is the delay.Waiter a runner gives the devices it simulates: it waits
// as delay.SleepWaiter does, and adds up the latency it charged. That sum is
// the modelled cost of a run, which no other load on the host moves.
type meter struct{ charged atomic.Int64 }

func (m *meter) Wait(d time.Duration) {
	m.charged.Add(int64(d))
	delay.Wait(d)
}

// perOp is the latency charged since the reading from, in microseconds per
// operation of ops.
func (m *meter) perOp(from, ops int64) cell {
	if ops == 0 {
		return cell{"-", math.NaN()}
	}
	return f2(float64(m.charged.Load()-from) / 1e3 / float64(ops))
}
