package srss

// ReplicaNodes returns the node IDs currently hosting replicas, in replica
// order. Repair changes this set.
func (p *PLog) ReplicaNodes() []int {
	reps := p.replicaList()
	ids := make([]int, len(reps))
	for i, r := range reps {
		ids[i] = r.node.ID
	}
	return ids
}

// ReplicaExtent returns the persisted length of replica i. Extents diverge
// from Size (and from each other) only on torn PLogs.
func (p *PLog) ReplicaExtent(i int) int64 {
	reps := p.replicaList()
	if i < 0 || i >= len(reps) {
		return -1
	}
	return reps[i].extent()
}

// CheckReplicas is the exported invariant hook for tests.
func (p *PLog) CheckReplicas() bool { return p.replicasEqual() }

// Replicas returns the current replica count.
func (p *PLog) Replicas() int { return len(p.replicaList()) }
