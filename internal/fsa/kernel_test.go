package fsa

import (
	"math"
	"testing"

	"repro/internal/rfsim"
)

// oracleTaper returns the full Hamming taper of f and its sum, in the
// element order and summation order the retired complex-recurrence kernel
// used.
func oracleTaper(f *FSA) ([]float64, float64) {
	taper := hammingTaper(f.cfg.Elements)
	var sum float64
	for _, w := range taper {
		sum += w
	}
	return taper, sum
}

// taperedArrayFactor is the retired pattern kernel, kept as the oracle the
// half-angle cosine sum is pinned against: the normalized |Σ w_n exp(jnψ)|
// with the per-element phasor generated by complex recurrence from one
// Sincos, floored at 1e-9.
func (f *FSA) taperedArrayFactor(psi float64) float64 {
	taper, taperSum := oracleTaper(f)
	s, c := math.Sincos(psi)
	phRe, phIm := 1.0, 0.0
	var re, im float64
	for _, w := range taper {
		re += w * phRe
		im += w * phIm
		phRe, phIm = phRe*c-phIm*s, phRe*s+phIm*c
	}
	af := math.Hypot(re, im) / taperSum
	if af < 1e-9 {
		af = 1e-9
	}
	return af
}

// oracleArrayFactor evaluates the oracle at the array phase between the
// arrival direction and port p's beam at fHz, the way GainDBi used to.
func oracleArrayFactor(f *FSA, p Port, fHz, angleDeg float64) float64 {
	beam := f.BeamAngleDeg(p, fHz)
	psi := math.Pi * (math.Sin(rfsim.DegToRad(angleDeg)) - math.Sin(rfsim.DegToRad(beam)))
	return f.taperedArrayFactor(psi)
}

// oracleEnvelope is one port's mode-independent round-trip amplitude built
// on the oracle array factor.
func oracleEnvelope(f *FSA, p Port, fHz, angleDeg float64) float64 {
	af := oracleArrayFactor(f, p, fHz, angleDeg)
	if af < f.afFloor {
		af = f.afFloor
	}
	return af * af * f.ampPeak
}

// TestKernelMatchesRecurrenceOracle pins every FSA evaluation — the
// ReflectionEnvelopes bulk fill over a BeamTable, the scalar
// ReflectionAmplitudeWithModes and GainDBi — against the retired
// complex-recurrence array factor to 1e-12 relative, for even and odd
// element counts (including the two- and three-element edge cases), both
// ports, broadside and end-fire (±90°) poses plus one far enough off-beam
// that the backlobe floor clamps, over a grid that runs past both band
// edges so the beam clamp is exercised. The bulk fill must also reproduce
// the scalar path bit for bit, with or without its outputs aliasing the
// table.
func TestKernelMatchesRecurrenceOracle(t *testing.T) {
	const tol = 1e-12
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	for _, elems := range []int{2, 3, 13, 14, 32} {
		cfg := DefaultConfig()
		cfg.Elements = elems
		f := MustNew(cfg)
		// 26.2–29.8 GHz: the first and last 0.3 GHz fall outside the band.
		const n = 721
		freq := make([]float64, n)
		for i := range freq {
			freq[i] = 26.2e9 + 3.6e9*float64(i)/float64(n-1)
		}
		if freq[0] >= cfg.FreqLow || freq[n-1] <= cfg.FreqHigh {
			t.Fatal("grid does not run past both band edges")
		}
		table := make([]float64, BeamTableWidth*n)
		f.BeamTable(freq, table)
		for _, orient := range []float64{0, 90, -90, 75, -17.5, 8.25} {
			pa, pb := make([]float64, n), make([]float64, n)
			f.ReflectionEnvelopes(table, orient, pa, pb)

			// Aliased form: the table built in the output rows themselves.
			inPlace := make([]float64, BeamTableWidth*n)
			f.BeamTable(freq, inPlace)
			f.ReflectionEnvelopes(inPlace, orient, inPlace[:n], inPlace[n:])

			clamped := 0
			for i, fHz := range freq {
				for _, port := range []struct {
					p   Port
					got float64
				}{{PortA, pa[i]}, {PortB, pb[i]}} {
					want := oracleEnvelope(f, port.p, fHz, orient)
					if r := rel(port.got, want); r > tol {
						t.Fatalf("N=%d orient %g° f=%g port %v: envelope %v vs oracle %v (rel %.2g)",
							elems, orient, fHz, port.p, port.got, want, r)
					}
					if want == f.afFloor*f.afFloor*f.ampPeak {
						clamped++
					}
					gWant := math.Pow(10, oracleGainDBi(f, port.p, fHz, orient)/20)
					gGot := math.Pow(10, f.GainDBi(port.p, fHz, orient)/20)
					if r := rel(gGot, gWant); r > tol {
						t.Fatalf("N=%d orient %g° f=%g port %v: GainDBi %v vs oracle %v (rel %.2g)",
							elems, orient, fHz, port.p, gGot, gWant, r)
					}
				}
				if math.Float64bits(inPlace[i]) != math.Float64bits(pa[i]) ||
					math.Float64bits(inPlace[n+i]) != math.Float64bits(pb[i]) {
					t.Fatalf("N=%d orient %g° sample %d: aliased fill differs", elems, orient, i)
				}
				for _, modes := range [][2]Mode{
					{Reflective, Reflective}, {Absorptive, Absorptive},
					{Reflective, Absorptive}, {Absorptive, Reflective},
				} {
					a, b := pa[i], pb[i]
					if modes[0] == Absorptive {
						a *= f.AbsorptiveFactor()
					}
					if modes[1] == Absorptive {
						b *= f.AbsorptiveFactor()
					}
					scalar := f.ReflectionAmplitudeWithModes(modes[0], modes[1], fHz, orient)
					if math.Float64bits(scalar) != math.Float64bits(a+b) {
						t.Fatalf("N=%d orient %g° f=%g modes %v: scalar %v != bulk %v",
							elems, orient, fHz, modes, scalar, a+b)
					}
				}
			}
			// A three-element Hamming array (w = 0.08, 1, 0.08) never
			// drops below 0.72 of its peak, so only it cannot clamp.
			if orient == 75 && clamped == 0 && elems != 3 {
				t.Fatalf("N=%d: no sample at orient 75° reaches the backlobe floor", elems)
			}
		}
	}
}

// oracleGainDBi is GainDBi on the oracle array factor.
func oracleGainDBi(f *FSA, p Port, fHz, angleDeg float64) float64 {
	g := f.peakGain + 20*math.Log10(oracleArrayFactor(f, p, fHz, angleDeg))
	if g < f.cfg.BacklobeFloorDBi {
		g = f.cfg.BacklobeFloorDBi
	}
	return g
}

// BenchmarkReflectionEnvelopes measures the per-target two-port bulk fill
// over a 1,024-sample grid given a prebuilt BeamTable — the work a capture
// does once per node — and, for scale, the per-capture BeamTable fill
// itself.
func BenchmarkReflectionEnvelopes(b *testing.B) {
	f := Default()
	const n = 1024
	freq := make([]float64, n)
	for i := range freq {
		freq[i] = 26.5e9 + 3e9*float64(i)/n
	}
	table := make([]float64, BeamTableWidth*n)
	f.BeamTable(freq, table)
	pa, pb := make([]float64, n), make([]float64, n)
	b.Run("fill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.ReflectionEnvelopes(table, -10, pa, pb)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.BeamTable(freq, table)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
	})
}
