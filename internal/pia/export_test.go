package pia

// Live returns the approximate number of slots holding non-nil pointers.
func (m *Map[T]) Live() int64 {
	var n int64
	for _, p := range *m.partitions.Load() {
		if p != nil {
			n += p.live.Load()
		}
	}
	return n
}

// Partitions returns the current partition count.
func (m *Map[T]) Partitions() int {
	return len(*m.partitions.Load())
}

// SlotBits reports the configured slots-per-partition exponent.
func (m *Map[T]) SlotBits() uint { return m.slotBits }
