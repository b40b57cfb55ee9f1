package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The radix-2 schedule below is the transform kernel the fused one
// replaced, kept verbatim as the bitwise oracle: every production
// transform must reproduce it on every output its caller reads.

// radix2Stages runs the bit-reversal permutation plus the full butterfly
// schedule against the given twiddle table, without any normalization pass.
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
// that only the first `prefix` entries are nonzero and that
// x[prefix:NextPowerOfTwo(prefix)] holds explicit zeros. Entries beyond
// NextPowerOfTwo(prefix) are ignored on input and overwritten: after the
// bit-reversal permutation every surviving input value sits at the head of a
// block of n/NextPowerOfTwo(prefix) outputs, and the leading log2(block)
// butterfly stages — whose odd inputs are all zero — collapse to
// broadcasting each head across its block. The remaining stages run
// unchanged.
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

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// FuzzPackedTransform pins the fused kernel to the radix-2 oracle bit for
// bit on every output a caller reads: the packed transform in either
// direction, ForwardPacked's row, AddBandEnvelope's envelope of outLen
// samples, and (for a full prefix) Transform. Inputs are random over a
// power-of-two n <= 4096 and a prefix in [1, n] (a multiple of n reads as
// n); the packed buffers carry garbage past NextPowerOfTwo(prefix), which
// the contract says is ignored.
func FuzzPackedTransform(f *testing.F) {
	for _, c := range []struct {
		logN           uint8
		prefix, outLen uint16
		inverse        bool
	}{
		{1, 1, 2, false}, {1, 2, 1, true}, // n = 2
		{2, 1, 4, true}, {2, 2, 1, false}, {2, 3, 4, false}, {2, 4, 1, true}, // n = 4
		{6, 64, 64, false}, {11, 2048, 2048, true}, // prefix = n: block 1
		{11, 1, 2048, false},                         // prefix 1: a broadcast
		{11, 600, 2048, false}, {11, 200, 100, true}, // odd remaining stage count
		{10, 450, 1024, false}, {12, 450, 1000, true}, // even remaining stage count
		{11, 450, 2048, false}, // localization range FFT
		{11, 81, 450, true},    // orientation band envelope
	} {
		f.Add(c.logN, c.prefix, c.inverse, c.outLen, int64(c.logN)*7919+int64(c.prefix))
	}
	f.Fuzz(func(t *testing.T, logN uint8, prefix16 uint16, inverse bool, outLen16 uint16, seed int64) {
		n := 1 << (logN % 13)
		prefix := int(prefix16) % n
		if prefix == 0 {
			prefix = n
		}
		outLen := int(outLen16) % (n + 1)
		p := PlanFFT(n)
		bp := PlanBatch(n)
		tw := p.twFwd
		if inverse {
			tw = p.twInv
		}
		rng := rand.New(rand.NewSource(seed))
		head := NextPowerOfTwo(prefix)
		x := make([]complex128, n)
		copy(x, randomComplex(rng, prefix))
		for i := head; i < n; i++ {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := append([]complex128(nil), x...)
		p.packedForward(want, prefix, tw)

		got := make([]complex128, n)
		for i := range got {
			got[i] = complex(math.NaN(), rng.NormFloat64())
		}
		p.transformPacked(got, append([]complex128(nil), x[:head]...), tw)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d prefix=%d inverse=%v: output %d = %v, oracle %v",
					n, prefix, inverse, i, got[i], want[i])
			}
		}

		if inverse {
			env := make([]float64, outLen)
			bp.AddBandEnvelope(env, x[:prefix])
			inv := 1 / float64(n)
			for i, v := range env {
				re, im := real(want[i]), imag(want[i])
				if w := inv * math.Sqrt(re*re+im*im); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("n=%d band=%d: envelope %d = %v, oracle %v", n, prefix, i, v, w)
				}
			}
		} else {
			row := append([]complex128(nil), x...)
			bp.ForwardPacked([][]complex128{row}, prefix)
			for i := range row {
				if !sameBits(row[i], want[i]) {
					t.Fatalf("n=%d prefix=%d: ForwardPacked bin %d = %v, oracle %v", n, prefix, i, row[i], want[i])
				}
			}
		}

		if prefix == n {
			full := append([]complex128(nil), x...)
			p.Transform(full, inverse)
			ref := append([]complex128(nil), x...)
			seedRadix2(ref, inverse)
			for i := range full {
				if !sameBits(full[i], ref[i]) {
					t.Fatalf("n=%d inverse=%v: Transform bin %d = %v, oracle %v", n, inverse, i, full[i], ref[i])
				}
			}
		}
	})
}
