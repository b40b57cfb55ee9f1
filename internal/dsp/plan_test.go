package dsp

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// seedRadix2 reimplements the pre-plan per-call transform verbatim. The plan-cached path must match them bit for bit: the experiment
// shape assertions across the repository pin exact floating-point outputs,
// so the plan refactor is only safe if it preserves every operation order.
func seedRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			s, c := math.Sincos(step * float64(k))
			w := complex(c, s)
			for start := k; start < n; start += size {
				even := x[start]
				odd := x[start+half] * w
				x[start] = even + odd
				x[start+half] = even - odd
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

func TestPlanBitIdenticalToSeedImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024, 2048} {
		for _, inverse := range []bool{false, true} {
			x := randomComplex(rng, n)
			want := make([]complex128, n)
			copy(want, x)
			seedRadix2(want, inverse)
			got := make([]complex128, n)
			copy(got, x)
			PlanFFT(n).Transform(got, inverse)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d inverse=%v: bin %d = %v, seed produced %v", n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPlanMatchesDFTReferencePowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 4, 16, 64, 128, 512, 2048} {
		x := randomComplex(rng, n)
		got := make([]complex128, n)
		copy(got, x)
		PlanFFT(n).Forward(got)
		want := dftReference(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: plan FFT deviates from reference DFT by %g", n, e)
		}
	}
}

func TestPlanInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 8, 64, 1024} {
		p := PlanFFT(n)
		x := randomComplex(rng, n)
		y := make([]complex128, n)
		copy(y, x)
		p.Forward(y)
		p.Transform(y, true)
		if e := maxErr(x, y); e > 1e-9*float64(n) {
			t.Errorf("n=%d: plan round trip deviates by %g", n, e)
		}
	}
}

func TestPlanCacheReturnsSharedInstance(t *testing.T) {
	if PlanFFT(2048) != PlanFFT(2048) {
		t.Fatal("PlanFFT(2048) built two plans for one size")
	}
}

func TestPlanConcurrentUseIsRaceFreeAndDeterministic(t *testing.T) {
	// Many goroutines hammer the same plans; every result must equal the
	// serial answer.
	for _, n := range []int{512, 64} {
		p := PlanFFT(n)
		rng := rand.New(rand.NewSource(15))
		x := randomComplex(rng, n)
		want := make([]complex128, n)
		copy(want, x)
		p.Forward(want)
		var wg sync.WaitGroup
		errs := make(chan string, 64)
		for g := 0; g < 64; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := make([]complex128, n)
				copy(got, x)
				p.Forward(got)
				for i := range want {
					if got[i] != want[i] {
						errs <- "concurrent transform diverged from serial result"
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatalf("n=%d: %s", n, msg)
		}
	}
}

// expectPowerOfTwoPanic fails unless plan(n) panics with a message that
// names the power-of-two contract.
func expectPowerOfTwoPanic[P any](t *testing.T, name string, plan func(int) P, n int) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "power-of-two") {
			t.Errorf("%s(%d) panic = %q, want a power-of-two message", name, n, msg)
		}
	}()
	plan(n)
}

func TestPlanPanicsOnBadInput(t *testing.T) {
	for _, n := range []int{0, 3, 1125} {
		expectPowerOfTwoPanic(t, "PlanFFT", PlanFFT, n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length-mismatched Transform did not panic")
			}
		}()
		PlanFFT(8).Forward(make([]complex128, 4))
	}()
}
