package nemesis

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

// Schedule generates a fault schedule over [0, horizon), deterministic
// under seed. Faults of different kinds overlap freely; same-kind faults
// are serialized. No fault outlives 3/4 of the horizon: the final quarter
// is a quiet tail (everything healed, everyone recovered, probabilistic
// knobs at zero) in which retransmission converges the run.
func Schedule(seed int64, topo Topology, horizon int64) []Event {
	return ScheduleWith(seed, topo, horizon, Options{})
}
