package delay

// Calls returns how many waits were charged (including zero-length ones).
func (w *CountingWaiter) Calls() int64 { return w.calls.Load() }
