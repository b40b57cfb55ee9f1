package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFTPlan holds everything a power-of-two transform of one fixed size needs
// but does not want to recompute per call: the bit-reversal permutation and
// per-stage twiddle factors for both transform directions.
//
// A plan is immutable after construction and safe for concurrent use from
// any number of goroutines; the package-level cache hands the same plan to
// every caller asking for a given size. The butterfly schedule and twiddle
// values are exactly those of the historical per-call implementation, so
// plan-cached transforms are bit-identical to the seed's output.
type FFTPlan struct {
	n int
	// rev[i] is the bit-reversed index of i.
	rev []int
	// twFwd/twInv are stage-major twiddle tables: for stage size s the
	// entries w_k = exp(∓2πik/s), k < s/2, stored consecutively. n-1 entries
	// per direction.
	twFwd, twInv []complex128
}

// planCache maps size -> *FFTPlan. Plans are tiny relative to the signals
// they transform (two n-entry twiddle tables) and the simulator touches only
// a handful of sizes (cfg.FFTSize in production), so an unbounded cache is
// the right trade.
var planCache sync.Map

// PlanFFT returns the shared transform plan for length n, building and
// caching it on first use. It panics unless n is a power of two.
func PlanFFT(n int) *FFTPlan {
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: PlanFFT requires a power-of-two length, got %d", n))
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*FFTPlan)
	}
	p := newPlan(n)
	// Two goroutines may build the same plan concurrently; both results are
	// identical, so keeping whichever lands first is harmless.
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*FFTPlan)
}

func newPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n}
	if n > 1 {
		p.rev = make([]int, n)
		shift := 64 - uint(bits.Len(uint(n-1)))
		for i := 0; i < n; i++ {
			p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	p.twFwd = twiddleTable(n, -1)
	p.twInv = twiddleTable(n, +1)
	return p
}

// twiddleTable precomputes w_k = exp(sign·2πik/size) stage by stage, using
// the same Sincos evaluation the per-call code used so values match bitwise.
func twiddleTable(n int, sign float64) []complex128 {
	if n < 2 {
		return nil
	}
	tw := make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			s, c := math.Sincos(step * float64(k))
			tw = append(tw, complex(c, s))
		}
	}
	return tw
}

// Forward transforms x in place using the engineering-standard sign
// convention X[k] = Σ x[n]·exp(-2πikn/N). len(x) must equal the plan size.
func (p *FFTPlan) Forward(x []complex128) { p.Transform(x, false) }

// Transform runs the plan in the requested direction; the inverse includes
// the 1/N normalization.
func (p *FFTPlan) Transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: plan for length %d applied to length %d", p.n, len(x)))
	}
	p.radix2(x, inverse)
}

// radix2 is the iterative in-place decimation-in-time FFT, with the
// permutation and twiddles read from the plan's tables instead of being
// recomputed per call.
func (p *FFTPlan) radix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	tw := p.twFwd
	if inverse {
		tw = p.twInv
	}
	p.radix2Stages(x, tw)
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// radix2Stages runs the bit-reversal permutation plus the full butterfly
// schedule against the given twiddle table, without any normalization pass.
// Splitting this out lets the packed transforms replace leading stages with
// a broadcast.
func (p *FFTPlan) radix2Stages(x []complex128, tw []complex128) {
	for i, j := range p.rev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.radix2From(x, 1, tw)
}

// radix2From runs the butterfly stages for sizes 2·firstSize .. n, assuming
// the permutation and all stages up to firstSize have already been applied
// (firstSize 1 means "run everything"). firstSize must be a power of two
// dividing n; the twiddle offset for the first executed stage of size S is
// S-1, matching the stage-major table layout.
func (p *FFTPlan) radix2From(x []complex128, firstSize int, tw []complex128) {
	n := len(x)
	off := firstSize - 1
	for size := firstSize << 1; size <= n; size <<= 1 {
		half := size >> 1
		for k := 0; k < half; k++ {
			w := tw[off+k]
			for start := k; start < n; start += size {
				even := x[start]
				odd := x[start+half] * w
				x[start] = even + odd
				x[start+half] = even - odd
			}
		}
		off += half
	}
}

// packedForward transforms x in place against the given twiddle table, given
// the caller's guarantee that only the first `prefix` entries are nonzero and
// that x[prefix:NextPowerOfTwo(prefix)] holds explicit zeros. Entries beyond
// NextPowerOfTwo(prefix) are ignored on input and overwritten: after the
// bit-reversal permutation every surviving input value sits at the head of a
// block of n/NextPowerOfTwo(prefix) outputs, and the leading log2(block)
// butterfly stages — whose odd inputs are all zero — collapse to broadcasting
// each head across its block. The remaining stages run unchanged, so the
// result matches the full transform bitwise (the skipped butterflies compute
// even±0, identical to the head value except for the sign of exact zeros,
// which no magnitude or difference can observe).
func (p *FFTPlan) packedForward(x []complex128, prefix int, tw []complex128) {
	n := len(x)
	if prefix < 1 {
		prefix = 1
	}
	block := n / NextPowerOfTwo(prefix)
	if block <= 1 {
		p.radix2Stages(x, tw)
		return
	}
	for i, j := range p.rev {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for start := 0; start < n; start += block {
		v := x[start]
		for j := 1; j < block; j++ {
			x[start+j] = v
		}
	}
	p.radix2From(x, block, tw)
}
