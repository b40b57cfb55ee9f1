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
	// scratch pools length-n staging buffers for AddBandEnvelope.
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
		buf := make([]complex128, n)
		return &buf
	}
	actual, _ := batchCache.LoadOrStore(n, bp)
	return actual.(*BatchPlan)
}

// ForwardPacked forward-transforms every buffer in xs in place given the
// caller's guarantee that only each buffer's first `prefix` entries are
// nonzero and that entries [prefix, NextPowerOfTwo(prefix)) are explicit
// zeros; entries beyond NextPowerOfTwo(prefix) are ignored on input and
// overwritten. The leading stages whose inputs are all zero collapse to a
// broadcast (see FFTPlan.packedForward); results match a plain forward
// transform of fully zero-padded buffers bitwise, up to the sign of exact
// zeros. Each buffer must have the plan's length.
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
	for _, x := range xs {
		p.packedForward(x, prefix, p.twFwd)
	}
}

// AddBandEnvelope accumulates into env the magnitude envelope of the
// plan-size inverse DFT of a band-limited spectrum: with X the length-n
// spectrum that is zero outside the band and band[j] = X[lo+j] its nonzero
// run, it adds |(1/n)·Σ_j band[j]·e^{2πi jt/n}| to env[t] for t < len(env).
// The band's absolute position lo does not appear: shifting a spectrum down
// to baseband multiplies its time signal by the unit-modulus phasor
// e^{2πi lo·t/n}, which the magnitude discards, so callers pass only the
// band itself. Because the band occupies a short spectrum prefix, the
// inverse transform runs packed (leading stages collapse to a broadcast) and
// the 1/n normalization folds into the magnitude accumulation — only the
// first len(env) bins ever get normalized. len(env) and len(band) must not
// exceed the plan size.
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
	buf := *bufPtr
	copy(buf, band)
	// packedForward only reads zeros up to the next power of two past the
	// band; everything beyond is overwritten by the broadcast.
	for i, stop := len(band), NextPowerOfTwo(len(band)); i < stop; i++ {
		buf[i] = 0
	}
	p.packedForward(buf, len(band), p.twInv)
	inv := 1 / float64(n)
	for t := range env {
		re, im := real(buf[t]), imag(buf[t])
		env[t] += inv * math.Sqrt(re*re+im*im)
	}
	bp.scratch.Put(bufPtr)
}

// EvalBin evaluates a single bin of the length-n forward DFT of x treated as
// zero-padded to n: Σ_{i<len(x)} x[i]·e^{-2πi·bin·i/n}. It walks the bin's
// phasor by recurrence, re-anchoring on an exact Sincos every
// ToneAnchorBlock samples like the synthesis tone kernels, so the result
// tracks the FFT's value to ~1e-14 relative error at pipeline sizes. Use it
// when a caller needs a handful of spectrum bins of a short signal — one
// bin costs O(len(x)) instead of an O(n·log n) transform.
func EvalBin(x []complex128, n, bin int) complex128 {
	if n < 1 {
		panic(fmt.Sprintf("dsp: EvalBin requires n >= 1, got %d", n))
	}
	step := -2 * math.Pi * float64(bin) / float64(n)
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
