package rfsim

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// TestGaussianDistribution draws 2^22 standard normals through the paths
// production uses (AddComplexAWGN's I and Q, plus Gaussian) and checks the
// ziggurat against the normal law: quantiles from 1e-4 to 0.9999, the
// first four moments, the two-sided 3σ tail, and the correlations that
// would betray a shared or overlapping stream (I against Q, lag 1, and
// keyed stream (key, i) against (key, i+1)). Each bound is five standard
// errors of its estimate at this sample size.
func TestGaussianDistribution(t *testing.T) {
	const nComplex = 1 << 20
	ns := KeyedNoiseSource(0xC0FFEE, 0)
	x := ns.AddComplexAWGN(make([]complex128, nComplex), 2)
	next := KeyedNoiseSource(0xC0FFEE, 1)
	y := next.AddComplexAWGN(make([]complex128, nComplex), 2)
	scalar := NewNoiseSource(9)

	draws := make([]float64, 0, 4*nComplex)
	for i := range x {
		draws = append(draws, real(x[i]), imag(x[i]), real(y[i]))
	}
	for i := 0; i < nComplex; i++ {
		draws = append(draws, scalar.Gaussian(1))
	}
	n := float64(len(draws))

	var m1, m2, m4, tail float64
	for _, v := range draws {
		m1 += v
		m2 += v * v
		m4 += v * v * v * v
		if math.Abs(v) > 3 {
			tail++
		}
	}
	m1, m2, m4, tail = m1/n, m2/n, m4/n, tail/n
	check := func(name string, got, want, se float64) {
		t.Helper()
		if math.Abs(got-want) > 5*se {
			t.Errorf("%s = %.5g, want %.5g ± %.2g (5 standard errors)", name, got, want, 5*se)
		}
	}
	check("mean", m1, 0, 1/math.Sqrt(n))
	check("variance", m2-m1*m1, 1, math.Sqrt(2/n))
	check("kurtosis", m4/(m2*m2), 3, math.Sqrt(24/n))
	pTail := math.Erfc(3 / math.Sqrt2)
	check("P(|x| > 3)", tail, pTail, math.Sqrt(pTail*(1-pTail)/n))

	corr := func(a, b func(i int) float64, count int) float64 {
		var s float64
		for i := 0; i < count; i++ {
			s += a(i) * b(i)
		}
		return s / float64(count)
	}
	se := 1 / math.Sqrt(nComplex)
	check("I/Q correlation", corr(func(i int) float64 { return real(x[i]) },
		func(i int) float64 { return imag(x[i]) }, nComplex), 0, se)
	check("lag-1 correlation", corr(func(i int) float64 { return real(x[i]) },
		func(i int) float64 { return real(x[i+1]) }, nComplex-1), 0, se)
	check("cross-stream correlation", corr(func(i int) float64 { return real(x[i]) },
		func(i int) float64 { return real(y[i]) }, nComplex), 0, se)
	check("cross-stream correlation (Q)", corr(func(i int) float64 { return imag(x[i]) },
		func(i int) float64 { return imag(y[i]) }, nComplex), 0, se)

	sort.Float64s(draws)
	for _, q := range []float64{1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999} {
		want := math.Sqrt2 * math.Erfinv(2*q-1)
		got := draws[int(q*n)]
		density := math.Exp(-want*want/2) / math.Sqrt(2*math.Pi)
		check(fmt.Sprintf("quantile %g", q), got, want, math.Sqrt(q*(1-q)/n)/density)
	}
}

// TestKeyedNoiseSourceStreams pins the keyed constructor's contract: the
// same (key, i) always yields the same stream, and a different index or key
// yields a different one.
func TestKeyedNoiseSourceStreams(t *testing.T) {
	first := func(key uint64, i int) [4]uint64 {
		ns := KeyedNoiseSource(key, i)
		var out [4]uint64
		for j := range out {
			out[j] = ns.Uint64()
		}
		return out
	}
	if first(7, 3) != first(7, 3) {
		t.Fatal("the same (key, i) gave two different streams")
	}
	for _, other := range [][2]uint64{{7, 4}, {8, 3}, {7, 2}} {
		if first(7, 3) == first(other[0], int(other[1])) {
			t.Errorf("stream (7, 3) equals stream %v", other)
		}
	}
}

// BenchmarkAddComplexAWGN times one 450-sample buffer, the localization
// chirp's length, drawn from a fresh keyed stream as the AP does per chirp
// and antenna.
func BenchmarkAddComplexAWGN(b *testing.B) {
	buf := make([]complex128, 450)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ns := KeyedNoiseSource(1, i)
		ns.AddComplexAWGN(buf, 1e-9)
	}
}
