package delay

import (
	"testing"
	"time"
)

func TestWaitZeroAndNegative(t *testing.T) {
	start := time.Now()
	Wait(0)
	Wait(-time.Second)
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Fatalf("zero/negative waits took %v", el)
	}
}

func TestWaitApproximatesDuration(t *testing.T) {
	for _, d := range []time.Duration{5 * time.Microsecond, 200 * time.Microsecond, 2 * time.Millisecond} {
		start := time.Now()
		Wait(d)
		el := time.Since(start)
		if el < d {
			t.Errorf("Wait(%v) returned after %v (< requested)", d, el)
		}
		if el > d+5*time.Millisecond {
			t.Errorf("Wait(%v) overshot to %v", d, el)
		}
	}
}

func TestCountingWaiter(t *testing.T) {
	var w CountingWaiter
	w.Wait(3 * time.Microsecond)
	w.Wait(0)
	w.Wait(7 * time.Microsecond)
	if got := w.Total(); got != 10*time.Microsecond {
		t.Fatalf("Total = %v, want 10µs", got)
	}
	if got := w.Calls(); got != 3 {
		t.Fatalf("Calls = %d, want 3", got)
	}
}

func TestCloudProfileRatios(t *testing.T) {
	m := CloudProfile()
	if m.CrossLayerRTT < 3*m.IntraComputeRTT || m.CrossLayerRTT > 5*m.IntraComputeRTT {
		t.Errorf("cross-layer latency %v not 3-5x intra-compute %v (paper Section 2.1)",
			m.CrossLayerRTT, m.IntraComputeRTT)
	}
	if m.ComputePMAppend >= m.CrossLayerRTT {
		t.Errorf("PM append %v should be far below cross-layer RTT %v", m.ComputePMAppend, m.CrossLayerRTT)
	}
}

func TestZeroModelChargesNothing(t *testing.T) {
	var w CountingWaiter
	m := Zero()
	w.Wait(m.ComputePMAppend)
	w.Wait(m.CrossLayerRTT)
	if w.Total() != 0 {
		t.Fatalf("zero model charged %v", w.Total())
	}
}
