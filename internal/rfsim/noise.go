package rfsim

import (
	"fmt"
	"math"
	"math/rand"
)

// NoiseSource generates reproducible additive white Gaussian noise. Every
// experiment in the repository seeds its noise explicitly so runs are
// deterministic while trials within a run are independent.
type NoiseSource struct {
	rng *rand.Rand
}

// NewNoiseSource returns a noise source seeded with the given value.
func NewNoiseSource(seed int64) *NoiseSource {
	return &NoiseSource{rng: rand.New(rand.NewSource(seed))}
}

// Gaussian returns one zero-mean Gaussian sample with the given standard
// deviation.
func (n *NoiseSource) Gaussian(sigma float64) float64 {
	return n.rng.NormFloat64() * sigma
}

// AddComplexAWGN adds circularly-symmetric complex Gaussian noise with total
// average power `power` (split evenly between I and Q) to x in place.
func (n *NoiseSource) AddComplexAWGN(x []complex128, power float64) []complex128 {
	if power < 0 {
		panic(fmt.Sprintf("rfsim: noise power must be non-negative, got %g", power))
	}
	sigma := math.Sqrt(power / 2)
	for i := range x {
		x[i] += complex(n.rng.NormFloat64()*sigma, n.rng.NormFloat64()*sigma)
	}
	return x
}
