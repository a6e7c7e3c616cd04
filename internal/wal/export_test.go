package wal

import (
	"hiengine/internal/srss"
)

// DestagedSegments returns the segment -> archive PLog mapping.
func (m *Manager) DestagedSegments() map[uint16]srss.PLogID {
	m.destageMu.Lock()
	defer m.destageMu.Unlock()
	out := make(map[uint16]srss.PLogID, len(m.destaged))
	for k, v := range m.destaged {
		out[k] = v
	}
	return out
}
