package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); math.Abs(m-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if v := Variance(x); math.Abs(v-4) > 1e-12 {
		t.Errorf("Variance = %g, want 4", v)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/short inputs should return 0")
	}
}

func TestRMSAndMeanSquare(t *testing.T) {
	x := []float64{3, -4}
	if r := RMS(x); math.Abs(r-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %g", r)
	}
	if RMS(nil) != 0 {
		t.Error("empty power should be 0")
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{5, 1, 3, 2, 4}
	if p := Percentile(x, 0); p != 1 {
		t.Errorf("p0 = %g, want 1", p)
	}
	if p := Percentile(x, 100); p != 5 {
		t.Errorf("p100 = %g, want 5", p)
	}
	if p := Percentile(x, 50); p != 3 {
		t.Errorf("p50 = %g, want 3", p)
	}
	if p := Percentile(x, 25); p != 2 {
		t.Errorf("p25 = %g, want 2", p)
	}
	if p := Percentile(x, 90); math.Abs(p-4.6) > 1e-12 {
		t.Errorf("p90 = %g, want 4.6", p)
	}
	if p := Percentile([]float64{7}, 90); p != 7 {
		t.Errorf("single-sample p90 = %g, want 7", p)
	}
	// Input must be left unmodified.
	if x[0] != 5 {
		t.Error("Percentile modified its input")
	}
	if m := Median([]float64{1, 2, 3, 4}); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("Median = %g, want 2.5", m)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(x, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianMatchesPercentileExactly(t *testing.T) {
	// Median now runs on quickselect; it must stay bit-identical to the
	// sort-based Percentile(x, 50) it replaced, including the interpolation
	// arithmetic on even lengths — the detect path's noise-floor threshold
	// feeds off this value, so even 1-ulp drift would show up in the
	// pooled-vs-reference bit-identity tests upstream.
	if m := Median([]float64{1, 2, 3, 4}); math.Abs(m-2.5) > 0 {
		t.Fatalf("Median(1..4) = %g, want 2.5 exactly", m)
	}
	if m := Median([]float64{7}); m != 7 {
		t.Fatalf("Median single = %g, want 7", m)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		x := make([]float64, n)
		for i := range x {
			// Mix magnitudes and exact duplicates to exercise the
			// three-way partition's equal-run handling.
			if rng.Intn(4) == 0 && i > 0 {
				x[i] = x[rng.Intn(i)]
			} else {
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		orig := make([]float64, n)
		copy(orig, x)
		got := Median(x)
		want := Percentile(x, 50)
		if got != want { // bit-identical, no tolerance
			return false
		}
		for i := range x { // input untouched
			if x[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Median(nil) did not panic")
		}
	}()
	Median(nil)
}

func TestEmpiricalCDF(t *testing.T) {
	x := []float64{3, 1, 2}
	cdf := EmpiricalCDF(x)
	if len(cdf) != 3 {
		t.Fatalf("CDF length %d", len(cdf))
	}
	if cdf[0].Value != 1 || cdf[2].Value != 3 {
		t.Fatalf("CDF not sorted: %+v", cdf)
	}
	if math.Abs(cdf[0].P-1.0/3) > 1e-12 || math.Abs(cdf[2].P-1) > 1e-12 {
		t.Fatalf("CDF probabilities wrong: %+v", cdf)
	}
	// Probabilities are non-decreasing and end at 1 (property).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		c := EmpiricalCDF(y)
		if !sort.SliceIsSorted(c, func(i, j int) bool { return c[i].Value < c[j].Value }) &&
			!sort.SliceIsSorted(c, func(i, j int) bool { return c[i].Value <= c[j].Value }) {
			return false
		}
		return math.Abs(c[len(c)-1].P-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDBConversions(t *testing.T) {
	if d := DB(100); math.Abs(d-20) > 1e-12 {
		t.Errorf("DB(100) = %g, want 20", d)
	}
	if d := DB(0); !math.IsInf(d, -1) {
		t.Errorf("DB(0) = %g, want -Inf", d)
	}
}
