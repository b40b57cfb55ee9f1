package dsp

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x (0 for fewer than two
// samples).
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of x using linear
// interpolation between closest ranks. It panics on an empty slice or an
// out-of-range p. The input is not modified.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		panic("dsp: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("dsp: Percentile p=%g outside [0,100]", p))
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of x. It is bit-identical to
// Percentile(x, 50) — same closest-rank interpolation, including the exact
// floating-point expression for even lengths — but selects the middle order
// statistics with quickselect (expected O(n)) instead of a full sort, since
// the detect path computes a median over every 1024-bin profile it forms.
func Median(x []float64) float64 {
	n := len(x)
	if n == 0 {
		panic("dsp: Percentile of empty slice")
	}
	if n == 1 {
		return x[0]
	}
	s := make([]float64, n)
	copy(s, x)
	if n%2 == 1 {
		return quickselect(s, (n-1)/2)
	}
	// Even length: Percentile(x, 50) lands between ranks lo and hi with
	// frac = 0.5; reproduce its interpolation expression exactly.
	lo := n/2 - 1
	vLo := quickselect(s, lo)
	// After quickselect, s[lo] is in final position and s[lo+1:] holds
	// elements >= s[lo]; the (lo+1)-th order statistic is their minimum.
	vHi := s[lo+1]
	for _, v := range s[lo+2:] {
		if v < vHi {
			vHi = v
		}
	}
	const frac = 0.5
	return vLo*(1-frac) + vHi*frac
}

// quickselect partially sorts s so s[k] holds its k-th order statistic
// (elements before k are <=, after k are >=) and returns it. Hoare-style
// three-way partitioning with median-of-three pivots keeps sorted and
// constant inputs at O(n).
func quickselect(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot.
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		// Three-way partition into [< pivot | == pivot | > pivot].
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case s[i] < pivot:
				s[lt], s[i] = s[i], s[lt]
				lt++
				i++
			case s[i] > pivot:
				s[i], s[gt] = s[gt], s[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return s[k]
		}
	}
	return s[k]
}

// CDFPoint is one point of an empirical cumulative distribution function.
type CDFPoint struct {
	Value float64 // sample value
	P     float64 // cumulative probability in (0, 1]
}

// EmpiricalCDF returns the empirical CDF of x as sorted (value, probability)
// pairs, the representation behind plots like the paper's Fig 12b angle
// error CDF.
func EmpiricalCDF(x []float64) []CDFPoint {
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	n := float64(len(s))
	for i, v := range s {
		out[i] = CDFPoint{Value: v, P: float64(i+1) / n}
	}
	return out
}

// DB converts a power ratio to decibels. Non-positive ratios map to -Inf.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}
