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

// transformPacked writes into x the transform, against twiddle table tw, of
// the head h zero-padded to len(x); len(h) must be a power of two no larger
// than the plan size, and x's prior contents are ignored.
//
// After the bit-reversal permutation every head value would sit at the
// start of a block of len(x)/len(h) outputs whose other entries are zero,
// so the leading stages would only broadcast it across its block. Instead
// the first stage whose odd inputs are nonzero reads its two head values
// straight from their bit-reversed positions in h, which replaces the
// permutation pass, the broadcast and that stage with one pass. The
// remaining stages run through stagesFrom. Every butterfly executes with
// the same operands, twiddle and operation order as the plain radix-2
// schedule, so the result is bitwise identical to permuting, broadcasting
// and running the radix-2 stages.
func (p *FFTPlan) transformPacked(x, h, tw []complex128) {
	n := len(x)
	if len(h) == 1 {
		for i := range x {
			x[i] = h[0]
		}
		return
	}
	block := n / len(h)
	w := tw[block-1 : 2*block-1]
	for g := 0; g < n; g += 2 * block {
		ve := h[p.rev[g]]
		vo := h[p.rev[g+block]]
		lo := x[g : g+block]
		hi := x[g+block : g+2*block][:len(lo)]
		w := w[:len(lo)]
		for k := range lo {
			odd := vo * w[k]
			lo[k] = ve + odd
			hi[k] = ve - odd
		}
	}
	stagesFrom(x, 2*block, tw)
}

// stagesFrom runs the decimation-in-time butterfly stages of half-sizes
// s, 2s, ..., len(x)/2 in place, against the stage-major twiddle table tw
// (the stage of half-size h reads tw[h-1 : 2h-1]), assuming the permutation
// and every earlier stage have been applied. s must be a power of two no
// larger than len(x); s == len(x) runs nothing.
//
// Stages run in radix-2² pairs, one memory pass per pair; an odd stage
// count runs one plain radix-2 pass first. A fused pass computes exactly
// the two radix-2 butterflies it replaces, in the same order and with the
// same table twiddles, so it is bitwise identical to running them one
// stage at a time.
func stagesFrom(x []complex128, s int, tw []complex128) {
	n := len(x)
	if bits.TrailingZeros(uint(n/s))%2 == 1 {
		radix2Pass(x, s, tw)
		s <<= 1
	}
	for ; s < n; s <<= 2 {
		radix22Pass(x, s, tw)
	}
}

// radix2Pass runs the single radix-2 stage of half-size s.
func radix2Pass(x []complex128, s int, tw []complex128) {
	w := tw[s-1 : 2*s-1]
	for g := 0; g < len(x); g += 2 * s {
		a := x[g : g+s]
		b := x[g+s : g+2*s][:len(a)]
		w := w[:len(a)]
		for k := range a {
			even := a[k]
			odd := b[k] * w[k]
			a[k] = even + odd
			b[k] = even - odd
		}
	}
}

// radix22Pass runs the stages of half-sizes s and 2s in one pass. Over each
// quartet (a, b, c, d) = x[g+k], x[g+k+s], x[g+k+2s], x[g+k+3s] the first
// stage butterflies (a, b) and (c, d) with tw[s-1+k]; the second butterflies
// (a', c') with tw[2s-1+k] and (b', d') with tw[3s-1+k].
func radix22Pass(x []complex128, s int, tw []complex128) {
	w1 := tw[s-1 : 2*s-1]
	w2 := tw[2*s-1 : 3*s-1]
	w3 := tw[3*s-1 : 4*s-1]
	for g := 0; g < len(x); g += 4 * s {
		a := x[g : g+s]
		b := x[g+s : g+2*s][:len(a)]
		c := x[g+2*s : g+3*s][:len(a)]
		d := x[g+3*s : g+4*s][:len(a)]
		w1 := w1[:len(a)]
		w2 := w2[:len(a)]
		w3 := w3[:len(a)]
		for k := range a {
			ab := b[k] * w1[k]
			a1, b1 := a[k]+ab, a[k]-ab
			cd := d[k] * w1[k]
			c1, d1 := c[k]+cd, c[k]-cd
			ac := c1 * w2[k]
			a[k], c[k] = a1+ac, a1-ac
			bd := d1 * w3[k]
			b[k], d[k] = b1+bd, b1-bd
		}
	}
}
