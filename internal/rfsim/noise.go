package rfsim

import (
	"fmt"
	"math"
	"math/bits"
)

// SplitMix64Gamma is the Weyl-sequence increment of SplitMix64 (the
// fractional part of the golden ratio in 64-bit fixed point).
const SplitMix64Gamma = 0x9E3779B97F4A7C15

// SplitMix64 advances x by SplitMix64Gamma and applies the finalizer
// (Steele, Lea & Flood, "Fast splittable pseudorandom number generators").
// It seeds every noise stream here and every session seed in proto.
func SplitMix64(x uint64) uint64 {
	x += SplitMix64Gamma
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NoiseSource generates reproducible additive white Gaussian noise: a
// 32-byte xoshiro256++ state (Blackman & Vigna) whose four words are filled
// from a SplitMix64 sequence, sampled through a 128-layer ziggurat
// (Marsaglia & Tsang, "The Ziggurat Method for Generating Random
// Variables", 2000). Every experiment in the repository seeds its noise
// explicitly, so runs are deterministic while trials within a run are
// independent. A source is not safe for concurrent use; concurrent
// consumers each take their own keyed stream (KeyedNoiseSource).
type NoiseSource struct {
	s [4]uint64
}

// NewNoiseSource returns a noise source seeded with the given value.
func NewNoiseSource(seed int64) *NoiseSource {
	ns := seededNoise(uint64(seed))
	return &ns
}

// KeyedNoiseSource returns stream i of the family keyed by key: the same
// (key, i) always yields the same stream, and streams with different i are
// statistically independent. It returns a value, so a caller drawing one
// buffer keeps the 32-byte state on its stack.
func KeyedNoiseSource(key uint64, i int) NoiseSource {
	return seededNoise(SplitMix64(key ^ SplitMix64(uint64(int64(i)))))
}

// seededNoise fills the xoshiro state with four consecutive SplitMix64
// outputs from x, which never leaves it all zero.
func seededNoise(x uint64) NoiseSource {
	var ns NoiseSource
	for j := range ns.s {
		ns.s[j] = SplitMix64(x + uint64(j)*SplitMix64Gamma)
	}
	return ns
}

// Uint64 returns the stream's next 64 uniformly distributed bits.
func (n *NoiseSource) Uint64() uint64 {
	s0, s1, s2, s3 := n.s[0], n.s[1], n.s[2], n.s[3]
	r := bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	n.s = [4]uint64{s0, s1, s2, s3}
	return r
}

// uniform returns a uniform draw in the open interval (0, 1), safe to take
// the logarithm of.
func (n *NoiseSource) uniform() float64 {
	return (float64(n.Uint64()>>11) + 0.5) * 0x1p-53
}

// Gaussian returns one zero-mean Gaussian sample with the given standard
// deviation, from 32 bits of one 64-bit output.
func (n *NoiseSource) Gaussian(sigma float64) float64 {
	u := uint32(n.Uint64() >> 32)
	x, ok := zigFast(u)
	if !ok {
		x = n.zigSlow(u)
	}
	return x * sigma
}

// AddComplexAWGN adds circularly-symmetric complex Gaussian noise with total
// average power `power` (split evenly between I and Q) to x in place. I and
// Q come from the two halves of one 64-bit output, and the generator state
// stays in locals across the loop; it is written back only around the rare
// ziggurat rejection.
func (n *NoiseSource) AddComplexAWGN(x []complex128, power float64) []complex128 {
	if power < 0 {
		panic(fmt.Sprintf("rfsim: noise power must be non-negative, got %g", power))
	}
	sigma := math.Sqrt(power / 2)
	s0, s1, s2, s3 := n.s[0], n.s[1], n.s[2], n.s[3]
	for i := range x {
		r := bits.RotateLeft64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)

		u, v := uint32(r>>32), uint32(r)
		re, okRe := zigFast(u)
		im, okIm := zigFast(v)
		if !okRe || !okIm {
			n.s = [4]uint64{s0, s1, s2, s3}
			if !okRe {
				re = n.zigSlow(u)
			}
			if !okIm {
				im = n.zigSlow(v)
			}
			s0, s1, s2, s3 = n.s[0], n.s[1], n.s[2], n.s[3]
		}
		x[i] += complex(re*sigma, im*sigma)
	}
	n.s = [4]uint64{s0, s1, s2, s3}
	return x
}

// Ziggurat tables. A 32-bit draw u splits into a layer index (bits 0–6), a
// sign (bit 7) and a 24-bit magnitude j = u>>8, so no bit serves twice.
// Layer 0 is the base strip with the tail beyond zigR; layer i ≥ 1 is the
// rectangle of width x_i between f(x_i) and f(x_{i−1}), f(x_0) = 1. A
// candidate x = j·zigW[i] lies inside the curve outright when j < zigK[i]
// (about 97 % of draws); the rest take zigSlow.
const (
	zigLayers = 128
	// zigR is the right edge of the base strip and zigV the common area of
	// every layer, Marsaglia & Tsang's constants for 128 layers.
	zigR     = 3.442619855899
	zigV     = 9.91256303526217e-3
	zigScale = 1 << 24
)

var (
	zigK [zigLayers]uint32
	zigW [zigLayers]float64
	zigF [zigLayers]float64
)

// init builds the ziggurat tables by Marsaglia & Tsang's recurrence,
// walking the layer edges inward from zigR.
func init() {
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	zigK[0] = uint32(dn / q * zigScale)
	zigK[1] = 0
	zigW[0] = q / zigScale
	zigW[zigLayers-1] = dn / zigScale
	zigF[0] = 1
	zigF[zigLayers-1] = math.Exp(-0.5 * dn * dn)
	for i := zigLayers - 2; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		zigK[i+1] = uint32(dn / tn * zigScale)
		tn = dn
		zigF[i] = math.Exp(-0.5 * dn * dn)
		zigW[i] = dn / zigScale
	}
}

// zigFast is the ziggurat's rejection-free path: the standard normal that
// u encodes, and true, when it lies inside its layer's inner rectangle.
func zigFast(u uint32) (float64, bool) {
	i := u & (zigLayers - 1)
	j := u >> 8
	if j >= zigK[i] {
		return 0, false
	}
	// Bit 7 moves to the sign bit without a branch, which a random sign
	// would mispredict half the time.
	return math.Float64frombits(math.Float64bits(float64(j)*zigW[i]) | uint64(u&0x80)<<56), true
}

// zigSlow finishes a draw that zigFast rejected, taking further uniforms
// from n: Marsaglia's exponential sampler for the tail beyond zigR, the
// wedge test for an upper layer, and a fresh 32-bit draw after a rejection.
func (n *NoiseSource) zigSlow(u uint32) float64 {
	for {
		i := u & (zigLayers - 1)
		x := float64(u>>8) * zigW[i]
		accept := true
		if i == 0 {
			x = zigR + n.zigTail()
		} else {
			accept = zigF[i]+n.uniform()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x)
		}
		if accept {
			if u&0x80 != 0 {
				x = -x
			}
			return x
		}
		u = uint32(n.Uint64())
		if x, ok := zigFast(u); ok {
			return x
		}
	}
}

// zigTail returns the excess over zigR of a standard normal conditioned on
// exceeding zigR.
func (n *NoiseSource) zigTail() float64 {
	for {
		x := -math.Log(n.uniform()) / zigR
		y := -math.Log(n.uniform())
		if y+y >= x*x {
			return x
		}
	}
}
