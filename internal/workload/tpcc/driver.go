package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
)

// TxnType enumerates the five TPC-C transactions.
type TxnType int

const (
	TxnNewOrder TxnType = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
	numTxnTypes
)

// String names the transaction type.
func (t TxnType) String() string {
	switch t {
	case TxnNewOrder:
		return "NewOrder"
	case TxnPayment:
		return "Payment"
	case TxnOrderStatus:
		return "OrderStatus"
	case TxnDelivery:
		return "Delivery"
	case TxnStockLevel:
		return "StockLevel"
	default:
		return "?"
	}
}

// Mix is the paper's transaction percentages: NewOrder 45, Payment 43,
// OrderStatus 4, Delivery 4, StockLevel 4 (Section 6.1.3).
var Mix = [numTxnTypes]int{45, 43, 4, 4, 4}

// Config configures a run.
type Config struct {
	DB         engineapi.DB
	Warehouses int
	Threads    int
	Scale      Scale
	// Duration bounds the run by wall-clock time when non-zero.
	Duration time.Duration
	Seed     int64
	// Partitioned binds each thread to a home warehouse (thread i ->
	// warehouse i%W+1); otherwise each transaction draws a random
	// warehouse. Figure 7 studies this knob.
	Partitioned bool
	// PipelineDepth enables pipelined commits for engines implementing
	// engineapi.AsyncCommitter (HiEngine): up to this many transactions
	// per thread may be awaiting durability while the worker proceeds
	// (commit pipelining, Section 4.2). 0 = fully synchronous commits.
	PipelineDepth int
	// OnAccess, when set, is called for every record access with the
	// warehouse being touched (NUMA accounting, Figure 7).
	OnAccess func(thread, warehouse int)
	// OnCommit, when set, is called once per committed transaction with
	// the executing thread. The Figure 6 harness charges cross-socket
	// costs for the engine's shared structures (CSN counter, log tails)
	// here -- the paper's explanation for the >64-core scalability dip.
	OnCommit func(thread int)

	// txnsPerThread bounds the run when Duration is zero (default 100);
	// this package's tests set it.
	txnsPerThread int
}

// maxRetries bounds per-transaction retry on conflicts.
const maxRetries = 10

// Result summarizes a run.
type Result struct {
	Counts    [numTxnTypes]int64
	Rollbacks int64 // intentional NewOrder rollbacks
	Conflicts int64 // retried conflict aborts
	Elapsed   time.Duration
	// Latency percentiles per transaction type (client-perceived,
	// including conflict retries). Zero when no sample was taken.
	LatP50 [numTxnTypes]time.Duration
	LatP99 [numTxnTypes]time.Duration
}

// TpmC returns NewOrder transactions per minute (the TPC-C metric).
func (r Result) TpmC() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Counts[TxnNewOrder]) / r.Elapsed.Minutes()
}

// Total returns total committed transactions.
func (r Result) Total() int64 {
	var n int64
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// String renders the result.
func (r Result) String() string {
	return fmt.Sprintf("tpmC=%.0f total=%d (NO=%d P=%d OS=%d D=%d SL=%d) rollbacks=%d conflicts=%d in %v; NewOrder p50=%v p99=%v",
		r.TpmC(), r.Total(), r.Counts[0], r.Counts[1], r.Counts[2], r.Counts[3], r.Counts[4],
		r.Rollbacks, r.Conflicts, r.Elapsed.Round(time.Millisecond),
		r.LatP50[TxnNewOrder].Round(time.Microsecond), r.LatP99[TxnNewOrder].Round(time.Microsecond))
}

// Driver executes the workload.
type Driver struct {
	cfg        Config
	historySeq atomic.Int64
	entrySeq   atomic.Int64
}

// NewDriver builds a driver; Load must have populated the database.
func NewDriver(cfg Config) *Driver {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Scale.Districts == 0 {
		cfg.Scale = FullScale()
	}
	d := &Driver{cfg: cfg}
	d.historySeq.Store(1 << 40) // clear of loader-assigned history keys
	d.entrySeq.Store(1 << 20)
	return d
}

// Run executes the mix and returns aggregate results.
func (d *Driver) Run() (Result, error) {
	var counts [numTxnTypes]atomic.Int64
	var rollbacks, conflicts atomic.Int64
	deadline := time.Time{}
	if d.cfg.Duration > 0 {
		deadline = time.Now().Add(d.cfg.Duration)
	}
	limit := d.cfg.txnsPerThread
	if limit <= 0 && d.cfg.Duration <= 0 {
		limit = 100
	}

	var wg sync.WaitGroup
	errCh := make(chan error, d.cfg.Threads)
	var latMu sync.Mutex
	var lats [numTxnTypes][]time.Duration
	start := time.Now()
	for th := 0; th < d.cfg.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			s := &session{
				d:      d,
				thread: th,
				rng:    rand.New(rand.NewSource(d.cfg.Seed + int64(th)*104729 + 7)),
				homeW:  th%d.cfg.Warehouses + 1,
			}
			if d.cfg.PipelineDepth > 0 {
				s.inflight = make(chan struct{}, d.cfg.PipelineDepth)
			}
			defer func() {
				if err := s.drain(); err != nil {
					errCh <- fmt.Errorf("thread %d async commit: %w", th, err)
				}
			}()
			var local [numTxnTypes][]time.Duration
			defer func() {
				latMu.Lock()
				for i := range local {
					lats[i] = append(lats[i], local[i]...)
				}
				latMu.Unlock()
			}()
			for i := 0; ; i++ {
				if d.cfg.Duration > 0 {
					if time.Now().After(deadline) {
						return
					}
				} else if i >= limit {
					return
				}
				tt := d.pickTxn(s.rng)
				w := s.homeW
				if !d.cfg.Partitioned {
					w = s.rng.Intn(d.cfg.Warehouses) + 1
				}
				t0 := time.Now()
				ok, err := d.runWithRetry(s, tt, w, &rollbacks, &conflicts)
				if err != nil {
					errCh <- fmt.Errorf("thread %d %v: %w", th, tt, err)
					return
				}
				if ok {
					counts[tt].Add(1)
					if len(local[tt]) < 4096 {
						local[tt] = append(local[tt], time.Since(t0))
					}
				}
			}
		}(th)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return Result{}, err
	default:
	}
	var res Result
	for i := range counts {
		res.Counts[i] = counts[i].Load()
	}
	res.Rollbacks = rollbacks.Load()
	res.Conflicts = conflicts.Load()
	res.Elapsed = elapsed
	for tt := range lats {
		l := lats[tt]
		if len(l) == 0 {
			continue
		}
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		res.LatP50[tt] = l[len(l)/2]
		res.LatP99[tt] = l[len(l)*99/100]
	}
	return res, nil
}

func (d *Driver) pickTxn(rng *rand.Rand) TxnType {
	n := rng.Intn(100)
	acc := 0
	for t := TxnType(0); t < numTxnTypes; t++ {
		acc += Mix[t]
		if n < acc {
			return t
		}
	}
	return TxnNewOrder
}

// runWithRetry executes one transaction, retrying conflict aborts. ok is
// false when the transaction ended in an intentional rollback.
func (d *Driver) runWithRetry(s *session, tt TxnType, w int, rollbacks, conflicts *atomic.Int64) (bool, error) {
	for attempt := 0; attempt <= maxRetries; attempt++ {
		var err error
		switch tt {
		case TxnNewOrder:
			err = s.newOrder(w)
		case TxnPayment:
			err = s.payment(w)
		case TxnOrderStatus:
			err = s.orderStatus(w)
		case TxnDelivery:
			err = s.delivery(w)
		case TxnStockLevel:
			err = s.stockLevel(w)
		}
		switch {
		case err == nil:
			if d.cfg.OnCommit != nil {
				d.cfg.OnCommit(s.thread)
			}
			return true, nil
		case errors.Is(err, errUserRollback):
			rollbacks.Add(1)
			return false, nil
		case errors.Is(err, engineapi.ErrConflict):
			conflicts.Add(1)
			continue
		default:
			return false, err
		}
	}
	// Retries exhausted under contention: count as a conflict loss.
	return false, nil
}

// Verify runs a subset of TPC-C's 3.3.2 consistency conditions: for every
// district, d_next_o_id - 1 equals the maximum o_id in orders and in
// new_order (when present), and every order's ol_cnt matches its order-line
// count.
func (d *Driver) Verify() error {
	tx, err := d.cfg.DB.Begin(0)
	if err != nil {
		return err
	}
	defer tx.Commit()
	for w := 1; w <= d.cfg.Warehouses; w++ {
		for dd := 1; dd <= d.cfg.Scale.Districts; dd++ {
			dRow, err := tx.GetByKey(TDistrict, 0, core.I(int64(w)), core.I(int64(dd)))
			if err != nil {
				return fmt.Errorf("district %d/%d: %w", w, dd, err)
			}
			nextO := dRow[6].Int()
			var maxO, maxNO int64
			var orders []core.Row
			err = tx.ScanPrefix(TOrder, 0, []core.Value{core.I(int64(w)), core.I(int64(dd))},
				func(row core.Row) bool {
					if row[2].Int() > maxO {
						maxO = row[2].Int()
					}
					orders = append(orders, row)
					return true
				})
			if err != nil {
				return err
			}
			if err := tx.ScanPrefix(TNewOrder, 0, []core.Value{core.I(int64(w)), core.I(int64(dd))},
				func(row core.Row) bool {
					if row[2].Int() > maxNO {
						maxNO = row[2].Int()
					}
					return true
				}); err != nil {
				return err
			}
			if maxO != nextO-1 {
				return fmt.Errorf("tpcc consistency: w=%d d=%d max(o_id)=%d != d_next_o_id-1=%d",
					w, dd, maxO, nextO-1)
			}
			if maxNO != 0 && maxNO > maxO {
				return fmt.Errorf("tpcc consistency: w=%d d=%d new_order max %d > orders max %d",
					w, dd, maxNO, maxO)
			}
			// Spot-check order-line counts on a sample of orders.
			for i := 0; i < len(orders); i += 50 {
				o := orders[i]
				cnt := int64(0)
				if err := tx.ScanPrefix(TOrderLine, 0,
					[]core.Value{o[0], o[1], o[2]},
					func(core.Row) bool { cnt++; return true }); err != nil {
					return err
				}
				if cnt != o[6].Int() {
					return fmt.Errorf("tpcc consistency: w=%d d=%d o=%d ol_cnt=%d but %d lines",
						w, dd, o[2].Int(), o[6].Int(), cnt)
				}
			}
		}
	}
	return nil
}
