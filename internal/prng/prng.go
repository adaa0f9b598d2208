// Package prng is the module's one pseudo-random generator: splitmix64,
// a single word of state — allocation-free, statistically strong enough
// for fault, scheduling and jitter draws, and reseeded per run by plain
// assignment. Every randomized plane (faultnet's link faults, the async
// scheduler and quorum picks, the wire plane's retransmission jitter)
// draws from it, so they share one reproducibility story: identical seed,
// identical draws.
package prng

// Rand is a splitmix64 stream. The zero value is the stream of seed 0.
type Rand struct{ s uint64 }

// New returns the stream of the given seed; assigning it over a Rand
// reseeds in place.
func New(seed uint64) Rand { return Rand{s: seed} }

// Next returns the next 64-bit draw.
func (r *Rand) Next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a draw from {0, …, n−1}; n must be positive.
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Shuffle permutes xs in place (Fisher–Yates, one Intn draw per element
// from the last down to the second).
func Shuffle[T any](r *Rand, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
