package core

// DurabilityLost reports whether the engine has fail-stopped after a
// durability failure.
func (e *Engine) DurabilityLost() bool { return e.durabilityLost.Load() }

// LastCheckpointCSN returns the CSN of the newest completed checkpoint (0
// if none was taken).
func (e *Engine) LastCheckpointCSN() uint64 { return e.lastCkpt.Load() }

// Evict drops in-memory payloads of all durable versions of a table,
// simulating memory pressure; subsequent reads reload them through SRSS
// mmap views (the partial-memory story of Section 4.2).
func (e *Engine) Evict(tableName string) (int, error) {
	t, err := e.Table(tableName)
	if err != nil {
		return 0, err
	}
	n := 0
	t.rows.Range(func(_ RID, v *Version) bool {
		for ; v != nil; v = v.next.Load() {
			if v.Evict() {
				n++
				e.dropPrivate(v)
			}
		}
		return true
	})
	return n, nil
}

// NumIndexes returns the index count.
func (t *Table) NumIndexes() int { return len(t.indexes) }

// Tomb reports whether the version is a delete marker.
func (v *Version) Tomb() bool { return v.tomb }

// Evict drops the in-memory payload of a durable version. Returns false if
// the version is not durable yet (evicting it would lose data).
func (v *Version) Evict() bool {
	if v.addr.Load() == 0 || v.tomb {
		return false
	}
	v.data.Store(nil)
	return true
}
