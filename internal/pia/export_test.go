package pia

// Partitions returns the current partition count.
func (m *Map[T]) Partitions() int {
	return len(*m.partitions.Load())
}

// SlotBits reports the configured slots-per-partition exponent.
func (m *Map[T]) SlotBits() uint { return m.slotBits }
