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
func (v *Version) Tomb() bool { return v.tomb() }

// Evict drops the in-memory payload of a durable version. Returns false if
// the version is not durable yet (evicting it would lose data).
func (v *Version) Evict() bool {
	if v.Addr() == 0 || v.tomb() {
		return false
	}
	v.data.Store(nil)
	return true
}

// haltMaintenance stops e's maintenance goroutine, for a test that compacts
// by hand and measures the log around it. Close, which stops it again, finds
// it stopped.
func (e *Engine) haltMaintenance() {
	e.stopMaintenance()
	dl := e.dead
	dl.stop, dl.done = make(chan struct{}), make(chan struct{})
	close(dl.done)
}

// DecodeRowPrefix is DecodeRowBorrowed decoding into a private copy of the
// row's bytes, as DecodeRow does.
func DecodeRowPrefix(dst Row, buf []byte) (Row, []byte, error) {
	return decodeRowPrefix(dst, buf, false)
}

// onSlotRead runs f between a reader's first load of a slot's TID and its
// load of the slot's status word (Engine.resolve), until restore is called.
func onSlotRead(f func()) (restore func()) {
	slotReadHook.Store(&f)
	return func() { slotReadHook.Store(nil) }
}
