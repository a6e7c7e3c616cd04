package numa

import (
	"testing"

	"hiengine/internal/delay"
)

func TestTopologyShapes(t *testing.T) {
	arm := ARMKunpeng920()
	if got := arm.TotalCores(); got != 128 {
		t.Fatalf("ARM cores = %d, want 128", got)
	}
	if got := arm.TotalDies(); got != 4 {
		t.Fatalf("ARM dies = %d, want 4", got)
	}
	x86 := X86Xeon()
	if got := x86.TotalCores(); got != 48 {
		t.Fatalf("x86 cores = %d, want 48", got)
	}
	if arm.RemoteSocket <= arm.LocalAccess {
		t.Fatal("remote socket access not slower than local")
	}
	if arm.RemoteSocket <= x86.RemoteSocket {
		t.Fatal("paper: ARM NUMA effect should exceed x86's")
	}
}

func TestCorePlacement(t *testing.T) {
	arm := ARMKunpeng920()
	c0 := arm.Core(0)
	if c0.Die != 0 || c0.Socket != 0 {
		t.Fatalf("core 0: %+v", c0)
	}
	c32 := arm.Core(32)
	if c32.Die != 1 || c32.Socket != 0 {
		t.Fatalf("core 32: %+v (die 1, socket 0 expected)", c32)
	}
	c64 := arm.Core(64)
	if c64.Die != 2 || c64.Socket != 1 {
		t.Fatalf("core 64: %+v (die 2, socket 1 expected)", c64)
	}
	c127 := arm.Core(127)
	if c127.Die != 3 || c127.Socket != 1 {
		t.Fatalf("core 127: %+v", c127)
	}
}

func TestPolicyPlacement(t *testing.T) {
	if got := PolicyLocal.Place(5, 2, 4); got != 2 {
		t.Fatalf("local: %d", got)
	}
	if got := PolicyInterleave.Place(5, 2, 4); got != 1 {
		t.Fatalf("interleave: %d", got)
	}
	if got := PolicyRemote.Place(5, 2, 4); got == 2 {
		t.Fatal("remote policy placed locally")
	}
}

func TestAccountantCountsAndCharges(t *testing.T) {
	var w delay.CountingWaiter
	arm := ARMKunpeng920()
	a := NewAccountant(arm, &w)
	a.Access(arm.Core(0), 0) // local
	a.Access(arm.Core(0), 1) // remote die, same socket
	a.Access(arm.Core(0), 2) // remote socket
	l, rd, rs := a.counts()
	if l != 1 || rd != 1 || rs != 1 {
		t.Fatalf("counts: %d %d %d", l, rd, rs)
	}
	want := arm.LocalAccess + arm.RemoteDie + arm.RemoteSocket
	if w.Total() != want {
		t.Fatalf("charged %v, want %v", w.Total(), want)
	}
	if f := a.RemoteFraction(); f < 0.66 || f > 0.67 {
		t.Fatalf("remote fraction = %f", f)
	}
	if f := a.CrossSocketFraction(); f < 0.33 || f > 0.34 {
		t.Fatalf("cross socket fraction = %f", f)
	}
	a.reset()
	if f := a.RemoteFraction(); f != 0 {
		t.Fatalf("fraction after reset = %f", f)
	}
}
