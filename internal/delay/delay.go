// Package delay models the latency landscape of the cloud infrastructure
// HiEngine runs on: persistent-memory appends on compute nodes, RDMA hops
// inside the compute layer, the slower cross-layer network between compute
// and storage pods, and SSD writes in the storage tier.
//
// The paper's argument is built on latency *ratios* (inter-layer latency is
// 3-5x intra-layer; PM appends are microseconds while storage commits are
// hundreds of microseconds). Profiles here encode those ratios and every
// simulated device calls back into a Model so experiments can flip between
// them (e.g. the commit-side ablation).
//
// Sleeping for single-digit microseconds with time.Sleep is unreliable on a
// stock kernel, so Wait uses a hybrid strategy: coarse sleeps for the bulk
// of long waits and a calibrated spin for the microsecond tail.
package delay

import (
	"sync/atomic"
	"time"
)

// Model is a set of latencies for the simulated hardware. A zero Model means
// "infinitely fast hardware" and is what unit tests use; benchmarks install
// one of the profiles below.
type Model struct {
	// ComputePMAppend is the cost of persisting an append into local
	// persistent memory on a compute node (CLWB+fence territory).
	ComputePMAppend time.Duration
	// IntraComputeRTT is one RDMA round trip between two compute nodes
	// (used to replicate the log tail to the two peer compute nodes).
	IntraComputeRTT time.Duration
	// CrossLayerRTT is one round trip between the compute and storage
	// layers (the paper: 3-5x IntraComputeRTT).
	CrossLayerRTT time.Duration
	// IntraStorageRTT is one round trip between storage nodes (replication
	// inside the storage tier).
	IntraStorageRTT time.Duration
	// SSDWrite is the device cost of persisting an append on a storage
	// node's SSD.
	SSDWrite time.Duration
	// SSDRead is the device cost of a random read from a storage node.
	SSDRead time.Duration
	// PMRead is the cost of a read served from compute-side persistent
	// memory through the mmap path.
	PMRead time.Duration
	// RDMAFetchAdd is one one-sided RDMA fetch-and-add against a remote
	// node (logical-clock timestamp grant).
	RDMAFetchAdd time.Duration
	// PerByteAppend adds bandwidth cost proportional to payload size for
	// append operations (per byte).
	PerByteAppend time.Duration
	// PageAccess is the CPU cost of one buffer-pool page access in a
	// storage-centric engine: hash probe, latch acquisition and LRU
	// maintenance. Memory-optimized engines avoid this per-access tax --
	// the paper's core argument for indirection arrays over buffer pools.
	PageAccess time.Duration
}

// CloudProfile mirrors the paper's Huawei Cloud deployment: microsecond PM
// appends, fast intra-layer RDMA, a 4x-slower cross-layer network and
// conventional SSDs in the storage tier.
func CloudProfile() *Model {
	return &Model{
		ComputePMAppend: 1 * time.Microsecond,
		IntraComputeRTT: 5 * time.Microsecond,
		CrossLayerRTT:   20 * time.Microsecond,
		IntraStorageRTT: 5 * time.Microsecond,
		SSDWrite:        80 * time.Microsecond,
		SSDRead:         90 * time.Microsecond,
		PMRead:          300 * time.Nanosecond,
		RDMAFetchAdd:    13 * time.Microsecond,
		PerByteAppend:   0,
		PageAccess:      400 * time.Nanosecond,
	}
}

// Zero returns a model with no simulated latency (unit tests, functional
// checks).
func Zero() *Model { return &Model{} }

// Wait blocks the calling goroutine for approximately d. Durations under
// spinThreshold are spun; longer waits sleep for the bulk and spin the tail.
func Wait(d time.Duration) {
	if d <= 0 {
		return
	}
	// time.Sleep resolution is the kernel timer tick -- ~1ms on stock
	// kernels -- so any shorter sleep overshoots to ~1.1ms and would
	// destroy the modeled latency ratios. Spin everything below the
	// tick and only sleep the bulk of genuinely long waits.
	const spinThreshold = 1200 * time.Microsecond
	deadline := time.Now().Add(d)
	if d > spinThreshold {
		time.Sleep(d - spinThreshold)
	}
	for time.Now().Before(deadline) {
		// Busy wait. The loop body is kept non-empty so the compiler
		// does not elide it; Gosched would defeat the calibration.
		spinHint()
	}
}

var spinSink atomic.Uint64

func spinHint() { spinSink.Add(1) }

// Waiter is implemented by anything that can charge a latency. Devices take
// a Waiter so tests can count charged latency instead of sleeping.
type Waiter interface {
	Wait(d time.Duration)
}

// SleepWaiter charges latencies by actually waiting (the default).
type SleepWaiter struct{}

// Wait implements Waiter.
func (SleepWaiter) Wait(d time.Duration) { Wait(d) }

// CountingWaiter accumulates charged latency without blocking. It is safe
// for concurrent use and is used by tests and by the virtual-time harness.
type CountingWaiter struct {
	total atomic.Int64
	calls atomic.Int64
}

// Wait implements Waiter by recording d.
func (w *CountingWaiter) Wait(d time.Duration) {
	if d > 0 {
		w.total.Add(int64(d))
	}
	w.calls.Add(1)
}

// Total returns the accumulated charged latency.
func (w *CountingWaiter) Total() time.Duration { return time.Duration(w.total.Load()) }
