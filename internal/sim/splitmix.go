package sim

// The tree's one pseudo-random generator, splitmix64: seeded workload
// schedules draw from a SplitMix stream and fault decisions hash their
// identity with Mix. Simulated code draws no ambient randomness, so a
// run is reproducible from its seeds alone.

// golden is splitmix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9E3779B97F4A7C15

// Mix is splitmix64's output function applied to z + golden: a
// stateless hash of one value, for draws keyed by what they decide
// rather than taken in sequence.
func Mix(z uint64) uint64 {
	z += golden
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SplitMix is a seeded splitmix64 stream.
type SplitMix struct{ s uint64 }

// NewSplitMix returns the stream that starts from seed.
func NewSplitMix(seed uint64) SplitMix { return SplitMix{s: seed} }

// Next returns the stream's next value.
func (g *SplitMix) Next() uint64 {
	z := Mix(g.s)
	g.s += golden
	return z
}

// Intn returns the next value reduced modulo n, for n > 0.
func (g *SplitMix) Intn(n int) int { return int(g.Next() % uint64(n)) }
