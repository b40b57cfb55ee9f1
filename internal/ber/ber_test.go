package ber

import (
	"math"
	"math/rand"
	"testing"
)

func TestNonCoherentOOK(t *testing.T) {
	// γ=0: pure guessing.
	if p := NonCoherentOOK(0); p != 0.5 {
		t.Errorf("BER at 0 SNR = %g, want 0.5", p)
	}
	// Monotone decreasing.
	prev := 1.0
	for g := 1.0; g < 100; g *= 2 {
		p := NonCoherentOOK(g)
		if p >= prev {
			t.Errorf("BER not decreasing at γ=%g", g)
		}
		prev = p
	}
	// Known value: γ=40 ⇒ ½e^-10 ≈ 2.27e-5.
	if p := NonCoherentOOK(40); math.Abs(p-0.5*math.Exp(-10))/p > 1e-12 {
		t.Errorf("BER(40) = %g", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative SNR did not panic")
		}
	}()
	NonCoherentOOK(-1)
}

func TestPaperAnchorPoints(t *testing.T) {
	// Fig 14: SINR 12 dB ⇒ BER ≈ 1e-8 with the calibrated processing gain.
	p := FromSNRdB(12, DefaultProcessingGainDB)
	if p > 3e-8 || p < 1e-9 {
		t.Errorf("BER at 12 dB = %g, want ~1e-8 (Fig 14 anchor)", p)
	}
	// Fig 15a call-outs: BER 2e-8 near 12 dB, 2e-4 near 8.6 dB.
	if s := SNRdBForBER(2e-8, DefaultProcessingGainDB); math.Abs(s-12) > 1 {
		t.Errorf("SNR for 2e-8 = %.2f dB, want ~12", s)
	}
	if s := SNRdBForBER(2e-4, DefaultProcessingGainDB); math.Abs(s-8.5) > 1 {
		t.Errorf("SNR for 2e-4 = %.2f dB, want ~8.5", s)
	}
}

func TestSNRdBForBERInvertsFromSNRdB(t *testing.T) {
	for _, target := range []float64{1e-3, 1e-6, 1e-10} {
		s := SNRdBForBER(target, DefaultProcessingGainDB)
		back := FromSNRdB(s, DefaultProcessingGainDB)
		if math.Abs(math.Log10(back)-math.Log10(target)) > 1e-9 {
			t.Errorf("round trip for %g: %g", target, back)
		}
	}
	for _, bad := range []float64{0, 0.5, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SNRdBForBER(%g) did not panic", bad)
				}
			}()
			SNRdBForBER(bad, 0)
		}()
	}
}

func TestMeasurement(t *testing.T) {
	m := Measurement{Bits: 1000, Errors: 3}
	if math.Abs(m.BER()-0.003) > 1e-12 {
		t.Errorf("BER = %g", m.BER())
	}
	m.Add(Measurement{Bits: 1000, Errors: 9})
	if m.Bits != 2000 || m.Errors != 12 {
		t.Errorf("Add wrong: %+v", m)
	}
	if (Measurement{}).BER() != 0 {
		t.Error("empty measurement BER should be 0")
	}
}

func TestMonteCarloAgainstTheory(t *testing.T) {
	// Simulate coherent OOK decisions directly and compare to the closed
	// form Q(sqrt(γ/2)), with Q(x) = ½·erfc(x/√2).
	gamma := 16.0 // BER = Q(sqrt(8)) ≈ 2.3e-3
	want := 0.5 * math.Erfc(math.Sqrt(gamma/2)/math.Sqrt2)
	m := MonteCarlo(func(seed int64) (int, int) {
		rng := rand.New(rand.NewSource(seed))
		const bits = 5000
		errs := 0
		amp := math.Sqrt(gamma / 2) // antipodal ±amp over unit noise
		for i := 0; i < bits; i++ {
			tx := 1.0
			if rng.Intn(2) == 0 {
				tx = -1
			}
			rx := tx*amp + rng.NormFloat64()
			if (rx > 0) != (tx > 0) {
				errs++
			}
		}
		return bits, errs
	}, 200, 10_000_000)
	got := m.BER()
	if math.Abs(got-want)/want > 0.3 {
		t.Errorf("Monte-Carlo BER = %g, theory %g", got, want)
	}
	if m.Errors < 10 {
		t.Error("should have accumulated enough errors")
	}
}

func TestMonteCarloStopsAtMaxBits(t *testing.T) {
	m := MonteCarlo(func(int64) (int, int) { return 100, 0 }, 10, 1000)
	if m.Bits < 1000 || m.Bits > 1100 {
		t.Errorf("bits = %d, want ~1000 cap", m.Bits)
	}
	if m.Errors != 0 {
		t.Errorf("errors = %d", m.Errors)
	}
	for _, f := range []func(){
		func() { MonteCarlo(func(int64) (int, int) { return 0, 0 }, 10, 100) },
		func() { MonteCarlo(func(int64) (int, int) { return 1, 0 }, 0, 100) },
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
