package storage

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

// Wipe destroys both data and counters, modelling a catastrophic disk loss.
// The Paxos safety argument does not allow acceptors to survive this
// (Section 4.4); it exists for tests.
func (d *Disk) Wipe() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recs = nil
	d.writes = 0
}
