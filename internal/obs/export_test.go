package obs

import "time"

// SlowThreshold returns the configured slow threshold (0 when unset or the
// tracer is nil).
func (tr *Tracer) SlowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.cfg.SlowThreshold
}
