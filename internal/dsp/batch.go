package dsp

import (
	"fmt"
	"math"
	"sync"
)

// BatchPlan executes batches of same-length power-of-two transforms in one
// call against a single shared FFTPlan: every transform in the batch reads
// the same twiddle tables and bit-reversal permutation, and the band
// envelopes share one staging arena. The batch is processed as a sequence
// of independent in-place transforms in cache-hot succession, so
// per-transform results are bitwise identical to transforming each buffer
// individually — batching changes only where the time goes, never the
// numbers.
//
// Like FFTPlan, a BatchPlan is immutable after construction (the scratch
// pool is internally synchronized) and safe for concurrent use; PlanBatch
// hands every caller the same plan per size.
type BatchPlan struct {
	p *FFTPlan
	// scratch pools length-2n staging buffers: ForwardPacked stages each
	// row's head in the front, AddBandEnvelope transforms into the front
	// half from a head staged in the back half.
	scratch sync.Pool
}

// batchCache maps size -> *BatchPlan, mirroring planCache: one shared plan
// per size so the internal scratch pool amortizes across all callers.
var batchCache sync.Map

// PlanBatch returns the shared batched-transform plan for length n, building
// and caching it (and the underlying FFTPlan) on first use. It panics unless
// n is a power of two.
func PlanBatch(n int) *BatchPlan {
	if p, ok := batchCache.Load(n); ok {
		return p.(*BatchPlan)
	}
	bp := &BatchPlan{p: PlanFFT(n)}
	bp.scratch.New = func() any {
		buf := make([]complex128, 2*n)
		return &buf
	}
	actual, _ := batchCache.LoadOrStore(n, bp)
	return actual.(*BatchPlan)
}

// ForwardPacked forward-transforms every buffer in xs in place given the
// caller's guarantee that only each buffer's first `prefix` entries are
// nonzero and that entries [prefix, NextPowerOfTwo(prefix)) are explicit
// zeros; entries beyond NextPowerOfTwo(prefix) are ignored on input and
// overwritten. Each buffer's head is staged through pooled scratch and the
// transform starts at the first stage with nonzero odd inputs (see
// FFTPlan.transformPacked); results match a plain forward transform of
// fully zero-padded buffers bitwise, up to the sign of exact zeros. Each
// buffer must have the plan's length.
func (bp *BatchPlan) ForwardPacked(xs [][]complex128, prefix int) {
	p := bp.p
	if prefix < 1 || prefix > p.n {
		panic(fmt.Sprintf("dsp: ForwardPacked prefix %d outside [1, %d]", prefix, p.n))
	}
	for _, x := range xs {
		if len(x) != p.n {
			panic(fmt.Sprintf("dsp: batch plan for length %d applied to length %d", p.n, len(x)))
		}
	}
	bufPtr := bp.scratch.Get().(*[]complex128)
	head := (*bufPtr)[:NextPowerOfTwo(prefix)]
	for _, x := range xs {
		copy(head, x)
		p.transformPacked(x, head, p.twFwd)
	}
	bp.scratch.Put(bufPtr)
}

// AddBandEnvelope accumulates into env the magnitude envelope of the
// plan-size inverse DFT of a band-limited spectrum: with X the length-n
// spectrum that is zero outside the band and band[j] = X[lo+j] its nonzero
// run, it adds |(1/n)·Σ_j band[j]·e^{2πi jt/n}| to env[t] for t < len(env).
// The band's absolute position lo does not appear: shifting a spectrum down
// to baseband multiplies its time signal by the unit-modulus phasor
// e^{2πi lo·t/n}, which the magnitude discards, so callers pass only the
// band itself. Because the band occupies a short spectrum prefix, the
// inverse transform runs packed and the 1/n normalization folds into the
// magnitude accumulation. len(env) and len(band) must not exceed
// the plan size.
func (bp *BatchPlan) AddBandEnvelope(env []float64, band []complex128) {
	p := bp.p
	n := p.n
	if len(band) < 1 || len(band) > n {
		panic(fmt.Sprintf("dsp: AddBandEnvelope band of %d bins against plan size %d", len(band), n))
	}
	if len(env) > n {
		panic(fmt.Sprintf("dsp: AddBandEnvelope envelope of %d samples against plan size %d", len(env), n))
	}
	bufPtr := bp.scratch.Get().(*[]complex128)
	buf := (*bufPtr)[:n]
	head := (*bufPtr)[n : n+NextPowerOfTwo(len(band))]
	clear(head[copy(head, band):])
	p.transformPacked(buf, head, p.twInv)
	inv := 1 / float64(n)
	for t := range env {
		re, im := real(buf[t]), imag(buf[t])
		env[t] += inv * math.Sqrt(re*re+im*im)
	}
	bp.scratch.Put(bufPtr)
}

// EvalBin evaluates the length-n forward DFT of x treated as zero-padded to
// n at a possibly fractional bin: Σ_{i<len(x)} x[i]·e^{-2πi·bin·i/n}. At an
// integer bin that is the FFT's bin; at bin+1/m it is bin m·bin+1 of an
// m-times longer zero-padded FFT, so a caller can read a refined peak
// position without padding the transform. It walks the bin's phasor by
// recurrence, re-anchoring on an exact Sincos every ToneAnchorBlock samples
// like the synthesis tone kernels, so the result tracks the exact sum to
// ~1e-14 relative error at pipeline sizes. Use it when a caller needs a
// handful of spectrum bins of a short signal — one bin costs O(len(x))
// instead of an O(n·log n) transform.
func EvalBin(x []complex128, n int, bin float64) complex128 {
	if n < 1 {
		panic(fmt.Sprintf("dsp: EvalBin requires n >= 1, got %d", n))
	}
	step := -2 * math.Pi * bin / float64(n)
	ws, wc := math.Sincos(step)
	w := complex(wc, ws)
	var acc, z complex128
	for i, v := range x {
		if i%ToneAnchorBlock == 0 {
			s, c := math.Sincos(step * float64(i))
			z = complex(c, s)
		}
		acc += v * z
		z *= w
	}
	return acc
}
