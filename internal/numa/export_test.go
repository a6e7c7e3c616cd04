package numa

// CrossSocketFraction returns the fraction of accesses crossing sockets.
func (a *Accountant) CrossSocketFraction() float64 {
	l, rd, rs := a.counts()
	total := l + rd + rs
	if total == 0 {
		return 0
	}
	return float64(rs) / float64(total)
}

// TotalCores returns the core count.
func (t Topology) TotalCores() int { return t.Sockets * t.DiesPerSocket * t.CoresPerDie }
