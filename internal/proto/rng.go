package proto

// Per-session deterministic seed streams.
//
// Every randomized operation in the simulator draws its noise from a seed,
// and the facade used to mint those seeds from one shared counter — which
// made results depend on the global order of API calls and made concurrent
// callers race. A SeedStream instead derives each operation's seed from
// (base seed, stream id, operation counter) through SplitMix64, so
// a session's k-th operation sees the same noise no matter what any other
// session is doing. Streams with different ids are statistically
// independent; the same (base, id, k) triple always yields the same seed.

import "repro/internal/rfsim"

// splitmix64Gamma and splitmix64 are rfsim's SplitMix64, the one copy the
// noise streams seed from too.
const splitmix64Gamma = rfsim.SplitMix64Gamma

func splitmix64(x uint64) uint64 { return rfsim.SplitMix64(x) }

// SeedStream is a deterministic, splittable stream of operation seeds. The
// zero value is usable but corresponds to base state 0; construct streams
// with NewSeedStream or DeriveSessionSeed so different owners never share a
// state.
type SeedStream struct {
	state uint64
	ctr   uint64
}

// NewSeedStream returns a stream rooted at the given seed.
func NewSeedStream(seed int64) SeedStream {
	return SeedStream{state: splitmix64(uint64(seed))}
}

// Next returns the stream's next operation seed. Seeds are non-negative so
// they read naturally in logs; the low 62 bits are fully mixed.
func (s *SeedStream) Next() int64 {
	s.ctr++
	return int64(splitmix64(s.state+s.ctr*splitmix64Gamma) >> 1)
}

// DeriveSessionSeed mixes a base seed with a per-node stream id into
// the root seed of that node's session stream. Distinct ids land in
// unrelated SplitMix64 states, so joining or operating one node never
// perturbs another node's noise.
func DeriveSessionSeed(baseSeed int64, streamID int) int64 {
	h := splitmix64(uint64(baseSeed))
	h = splitmix64(h ^ splitmix64(uint64(int64(streamID))))
	return int64(h >> 1)
}
