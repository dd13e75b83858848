package vtime

// Stream is the seeded variate stream of the fault injectors (the chaos
// fabric and proxy, the soak's fault plans, torn WAL writes): a 64-bit
// LCG, so a seed always replays the same faults.
type Stream struct{ s uint64 }

// NewStream returns the stream for seed, scrambled splitmix-style so
// that nearby seeds diverge.
func NewStream(seed uint64) Stream {
	return Stream{(seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9}
}

// Next advances the stream and returns its new state.
func (r *Stream) Next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s
}

// Float returns the next variate, uniform in [0,1).
func (r *Stream) Float() float64 { return float64(r.Next()>>11) / float64(1<<53) }
