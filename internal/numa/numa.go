// Package numa models the multi-socket, multi-die processor topologies of
// the paper's evaluation platforms (Section 6.1, 6.3): a 2-socket, 128-core
// Kunpeng 920 ARM server with 4 dies, and a 2-socket, 48-core (96
// hyperthread) x86 Xeon server. ARM manycore parts offer more cores but
// exhibit a more severe NUMA effect (Section 2.1); Figures 6 and 7 study how
// thread placement, memory placement and workload partitioning interact
// through the fraction of cross-socket remote accesses.
//
// The model is intentionally simple and causal: worker goroutines are
// logically bound to cores; tracked data structures have a home die; every
// tracked access from core c to home die d charges the local or remote
// latency and increments the corresponding counter. The paper's empirical
// law -- roughly 5% tpmC lost per additional 10% of remote accesses --
// emerges from the charged latency rather than being hard-coded.
package numa

import (
	"fmt"
	"sync/atomic"
	"time"

	"hiengine/internal/delay"
)

// Topology describes a processor.
type Topology struct {
	Name          string
	Sockets       int
	DiesPerSocket int
	CoresPerDie   int
	// LocalAccess is charged for an access whose home die matches the
	// accessing core's die.
	LocalAccess time.Duration
	// RemoteDie is charged for an access to another die on the same
	// socket.
	RemoteDie time.Duration
	// RemoteSocket is charged for a cross-socket access.
	RemoteSocket time.Duration
}

// ARMKunpeng920 is the paper's TaiShan 200 server: 2 sockets x 2 dies x 32
// cores = 128 cores, with a pronounced remote-access penalty.
func ARMKunpeng920() Topology {
	return Topology{
		Name:          "arm-kunpeng920",
		Sockets:       2,
		DiesPerSocket: 2,
		CoresPerDie:   32,
		LocalAccess:   90 * time.Nanosecond,
		RemoteDie:     200 * time.Nanosecond,
		RemoteSocket:  500 * time.Nanosecond,
	}
}

// X86Xeon is the paper's dual-socket Xeon: 2 sockets x 1 die x 24 physical
// cores (48 cores, 96 hyperthreads); fewer cores, milder NUMA penalty.
func X86Xeon() Topology {
	return Topology{
		Name:          "x86-xeon",
		Sockets:       2,
		DiesPerSocket: 1,
		CoresPerDie:   24,
		LocalAccess:   80 * time.Nanosecond,
		RemoteDie:     80 * time.Nanosecond,
		RemoteSocket:  220 * time.Nanosecond,
	}
}

// TotalDies returns the die count.
func (t Topology) TotalDies() int { return t.Sockets * t.DiesPerSocket }

// Core identifies one logical core's placement.
type Core struct {
	ID     int
	Die    int // global die index
	Socket int
}

// Core returns the placement of core id (cores are numbered die-major, so
// core IDs [0,CoresPerDie) are die 0, and so on).
func (t Topology) Core(id int) Core {
	die := id / t.CoresPerDie % t.TotalDies()
	return Core{ID: id, Die: die, Socket: die / t.DiesPerSocket}
}

// Policy selects how data is placed on memory nodes (dies).
type Policy int

const (
	// PolicyLocal places each datum on its owner's die (optimal when the
	// workload is partitioned and threads are bound to owning dies).
	PolicyLocal Policy = iota
	// PolicyInterleave stripes data across all active dies.
	PolicyInterleave
	// PolicyRemote deliberately places data on a different die than its
	// owner (Figure 7's worst case: 69% remote accesses).
	PolicyRemote
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyLocal:
		return "local"
	case PolicyInterleave:
		return "interleave"
	case PolicyRemote:
		return "remote"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Place computes the home die for a partition (e.g. a TPC-C warehouse)
// owned by ownerDie under the policy, with activeDies dies in use.
func (p Policy) Place(partition, ownerDie, activeDies int) int {
	switch p {
	case PolicyLocal:
		return ownerDie
	case PolicyInterleave:
		return partition % activeDies
	case PolicyRemote:
		return (ownerDie + 1) % activeDies
	default:
		return ownerDie
	}
}

// Accountant charges and counts memory accesses for one run.
type Accountant struct {
	topo   Topology
	waiter delay.Waiter

	local        atomic.Int64
	remoteDie    atomic.Int64
	remoteSocket atomic.Int64
}

// NewAccountant builds an accountant over a topology. A nil waiter waits for
// real (spun) time.
func NewAccountant(topo Topology, waiter delay.Waiter) *Accountant {
	if waiter == nil {
		waiter = delay.SleepWaiter{}
	}
	return &Accountant{topo: topo, waiter: waiter}
}

// Topology returns the accountant's topology.
func (a *Accountant) Topology() Topology { return a.topo }

// Access charges one tracked access from core to a datum homed on homeDie.
func (a *Accountant) Access(core Core, homeDie int) {
	switch {
	case core.Die == homeDie:
		a.local.Add(1)
		a.waiter.Wait(a.topo.LocalAccess)
	case homeDie/a.topo.DiesPerSocket == core.Socket:
		a.remoteDie.Add(1)
		a.waiter.Wait(a.topo.RemoteDie)
	default:
		a.remoteSocket.Add(1)
		a.waiter.Wait(a.topo.RemoteSocket)
	}
}

// Counts returns (local, remote-die, remote-socket) access counts.
func (a *Accountant) Counts() (local, remoteDie, remoteSocket int64) {
	return a.local.Load(), a.remoteDie.Load(), a.remoteSocket.Load()
}

// RemoteFraction returns the fraction of accesses that crossed a die or
// socket boundary (0 when no accesses were recorded).
func (a *Accountant) RemoteFraction() float64 {
	l, rd, rs := a.Counts()
	total := l + rd + rs
	if total == 0 {
		return 0
	}
	return float64(rd+rs) / float64(total)
}

// Reset zeroes the counters.
func (a *Accountant) Reset() {
	a.local.Store(0)
	a.remoteDie.Store(0)
	a.remoteSocket.Store(0)
}
