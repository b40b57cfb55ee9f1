package fsa

import (
	"fmt"
	"math"

	"repro/internal/rfsim"
)

// Port identifies one of the FSA's two feed ports.
type Port int

const (
	// PortA is the feed at the "low" end of the series feed line.
	PortA Port = iota
	// PortB is the feed at the opposite end; its frequency→beam map is the
	// mirror image of port A's.
	PortB
)

// String implements fmt.Stringer.
func (p Port) String() string {
	switch p {
	case PortA:
		return "A"
	case PortB:
		return "B"
	default:
		return fmt.Sprintf("Port(%d)", int(p))
	}
}

// Mode is the state of a port's SPDT switch (paper Fig 4).
type Mode int

const (
	// Reflective: port shorted to the ground plane; the beam re-radiates
	// incident signals back toward their arrival direction.
	Reflective Mode = iota
	// Absorptive: port connected to the 50 Ω envelope detector; incident
	// signals are delivered to the detector and (almost) nothing reflects.
	Absorptive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Reflective:
		return "reflective"
	case Absorptive:
		return "absorptive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config holds the FSA design parameters.
type Config struct {
	// FreqLow and FreqHigh bound the operating band in Hz.
	FreqLow, FreqHigh float64
	// ScanLowDeg and ScanHighDeg are the beam angles (degrees) port A
	// produces at FreqLow and FreqHigh respectively. MilBack: −30° to +30°
	// (60° of scan from 3 GHz of bandwidth, vs the 10 GHz/48° of [37]).
	ScanLowDeg, ScanHighDeg float64
	// Elements is the number of radiating elements in the series-fed array.
	Elements int
	// ElementGainDBi is the gain of a single radiating element.
	ElementGainDBi float64
	// AbsorptionReturnLossDB is how far below the reflective-mode return an
	// absorptive port's residual reflection sits (positive dB).
	AbsorptionReturnLossDB float64
	// BacklobeFloorDBi floors the pattern far from the main lobe.
	BacklobeFloorDBi float64
}

// DefaultConfig returns the parameters of MilBack's fabricated FSA:
// 26.5–29.5 GHz covering 60° of azimuth with >10 dBi beams about 10° wide.
func DefaultConfig() Config {
	return Config{
		FreqLow:                26.5e9,
		FreqHigh:               29.5e9,
		ScanLowDeg:             -30,
		ScanHighDeg:            30,
		Elements:               14,
		ElementGainDBi:         1.0,
		AbsorptionReturnLossDB: 20,
		BacklobeFloorDBi:       -15,
	}
}

func (c Config) validate() error {
	if c.FreqHigh <= c.FreqLow || c.FreqLow <= 0 {
		return fmt.Errorf("fsa: invalid band [%g, %g]", c.FreqLow, c.FreqHigh)
	}
	if c.ScanHighDeg <= c.ScanLowDeg {
		return fmt.Errorf("fsa: invalid scan range [%g, %g]", c.ScanLowDeg, c.ScanHighDeg)
	}
	if c.Elements < 2 {
		return fmt.Errorf("fsa: need at least 2 elements, got %d", c.Elements)
	}
	if c.AbsorptionReturnLossDB < 0 {
		return fmt.Errorf("fsa: absorption return loss must be >= 0 dB, got %g", c.AbsorptionReturnLossDB)
	}
	return nil
}

// FSA is a dual-port frequency scanning antenna with per-port switch state.
// The zero value is not usable; construct with New.
type FSA struct {
	cfg   Config
	modes [2]Mode

	// half and afScale are the Hamming taper folded for the half-angle
	// kernel (arrayFactors): the taper is symmetric, so the array factor is
	// a cosine sum over one half of the elements. half[m] is the weight of
	// the m-th element right of the array centre (halved for the centre
	// element of an odd array) and afScale = 2/Σw normalizes the sum to
	// unity at ψ = 0. The weights depend only on the immutable element
	// count, so they are computed once here.
	half    []float64
	afScale float64

	// Derived constants hoisted out of the gain hot path. peakGain is
	// PeakGainDBi()'s value; the three linear-domain factors let
	// ReflectionAmplitudeWithModes run without a single Log10/Pow per call:
	// ampPeak = 10^(peakGain/10) is the round-trip boresight amplitude,
	// ampAbs = 10^(-AbsorptionReturnLossDB/20) the absorptive-mode residual,
	// and afFloor = 10^((BacklobeFloorDBi-peakGain)/20) the array-factor
	// level at which the backlobe floor engages.
	peakGain float64
	ampPeak  float64
	ampAbs   float64
	afFloor  float64
}

// hammingTaper returns the raised-cosine (Hamming) weights of an n-element
// array. Series-fed microstrip FSAs are naturally amplitude-tapered (each
// element couples off a fraction of the travelling wave); the taper keeps
// the first sidelobe near −40 dB instead of the uniform array's −13 dB.
func hammingTaper(n int) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(k)/float64(n-1))
	}
	return w
}

// New builds an FSA from the config. It returns an error for inconsistent
// parameters.
func New(cfg Config) (*FSA, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &FSA{cfg: cfg}
	taper := hammingTaper(cfg.Elements)
	var taperSum float64
	for _, w := range taper {
		taperSum += w
	}
	f.afScale = 2 / taperSum
	n := cfg.Elements
	f.half = append([]float64(nil), taper[n/2:]...)
	if n%2 == 1 {
		f.half[0] /= 2
	}
	f.peakGain = 10*math.Log10(float64(cfg.Elements)) + cfg.ElementGainDBi
	f.ampPeak = math.Pow(10, f.peakGain/10)
	f.ampAbs = math.Pow(10, -cfg.AbsorptionReturnLossDB/20)
	f.afFloor = math.Pow(10, (cfg.BacklobeFloorDBi-f.peakGain)/20)
	return f, nil
}

// MustNew is New for known-good configs; it panics on error.
func MustNew(cfg Config) *FSA {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Default returns an FSA with DefaultConfig, both ports reflective.
func Default() *FSA { return MustNew(DefaultConfig()) }

// Config returns the design parameters.
func (f *FSA) Config() Config { return f.cfg }

// CenterFrequency returns the middle of the operating band.
func (f *FSA) CenterFrequency() float64 { return (f.cfg.FreqLow + f.cfg.FreqHigh) / 2 }

// Bandwidth returns the width of the operating band in Hz.
func (f *FSA) Bandwidth() float64 { return f.cfg.FreqHigh - f.cfg.FreqLow }

// SetMode sets one port's switch state.
func (f *FSA) SetMode(p Port, m Mode) {
	f.modes[f.portIndex(p)] = m
}

// ModeOf returns a port's current switch state.
func (f *FSA) ModeOf(p Port) Mode { return f.modes[f.portIndex(p)] }

// SetModes sets both ports at once (A, B).
func (f *FSA) SetModes(a, b Mode) {
	f.modes[0] = a
	f.modes[1] = b
}

func (f *FSA) portIndex(p Port) int {
	if p != PortA && p != PortB {
		panic(fmt.Sprintf("fsa: invalid port %d", int(p)))
	}
	return int(p)
}

// BeamAngleDeg returns the beam direction (degrees, antenna frame) of the
// given port at frequency fHz. Port A maps the band linearly onto
// [ScanLowDeg, ScanHighDeg]; port B is the mirror. Frequencies outside the
// band are clamped to the band edges (the physical array's scan stops at
// its design limits).
func (f *FSA) BeamAngleDeg(p Port, fHz float64) float64 {
	c := f.cfg
	x := (fHz - c.FreqLow) / (c.FreqHigh - c.FreqLow)
	if x < 0 {
		x = 0
	} else if x > 1 {
		x = 1
	}
	angle := c.ScanLowDeg + x*(c.ScanHighDeg-c.ScanLowDeg)
	if p == PortB {
		angle = -angle
	}
	f.portIndex(p) // validate port
	return angle
}

// FrequencyForAngle inverts BeamAngleDeg: the frequency that steers the
// given port's beam to angleDeg. Angles outside the scan range are clamped.
// This is the lookup the AP performs when it converts the node's estimated
// orientation into the OAQFM carrier pair (§6.1).
func (f *FSA) FrequencyForAngle(p Port, angleDeg float64) float64 {
	c := f.cfg
	if p == PortB {
		angleDeg = -angleDeg
	} else {
		f.portIndex(p)
	}
	x := (angleDeg - c.ScanLowDeg) / (c.ScanHighDeg - c.ScanLowDeg)
	if x < 0 {
		x = 0
	} else if x > 1 {
		x = 1
	}
	return c.FreqLow + x*(c.FreqHigh-c.FreqLow)
}

// PeakGainDBi returns the boresight gain of one beam:
// 10 log10(N) + element gain. The value is computed once at construction.
func (f *FSA) PeakGainDBi() float64 {
	return f.peakGain
}

// GainDBi returns the gain (dBi) of the given port at frequency fHz toward
// direction angleDeg in the antenna frame. The pattern is an
// amplitude-tapered linear-array factor centred on the port's beam angle for
// that frequency, floored at the backlobe level. Series-fed microstrip FSAs
// are naturally amplitude-tapered (each element couples off a fraction of
// the travelling wave), which keeps sidelobes well below the uniform-array
// −13 dB — the isolation that makes OAQFM's per-port tone separation work.
func (f *FSA) GainDBi(p Port, fHz, angleDeg float64) float64 {
	f.portIndex(p)
	su, cu := halfPhase(angleDeg)
	sv, cv := f.beamHalfPhase(fHz)
	af, afB := f.arrayFactors(halfCosines(su, cu, sv, cv))
	if p == PortB {
		af = afB
	}
	if af < 1e-9 {
		af = 1e-9
	}
	g := f.peakGain + 20*math.Log10(af)
	if g < f.cfg.BacklobeFloorDBi {
		g = f.cfg.BacklobeFloorDBi
	}
	return g
}

// The pattern kernel. With half-wavelength element spacing the array phase
// is ψ = π(sin θ − sin θ_beam), so ψ/2 = u − v with u = (π/2)·sin θ for the
// arrival direction and v = (π/2)·sin θ_A(f) for port A's beam. Port B's
// beam is the exact mirror θ_B = −θ_A, so its v is −v. Every FSA evaluation
// — GainDBi, ReflectionAmplitudeWithModes and the ReflectionEnvelopes bulk
// fill — reduces to the same three steps:
//
//  1. the sine and cosine of u (once per target) and of v (once per
//     frequency: BeamTable holds them for a whole grid);
//  2. cos(ψ/2) = cos u·cos v ± sin u·sin v for port A / port B (halfCosines);
//  3. the folded cosine sums of arrayFactors.
//
// None of the per-(target, frequency) work is transcendental.

// halfPhase returns the sine and cosine of (π/2)·sin θ for θ in degrees:
// the half array phase of a direction.
func halfPhase(deg float64) (sin, cos float64) {
	return math.Sincos(math.Pi / 2 * math.Sin(rfsim.DegToRad(deg)))
}

// beamHalfPhase is halfPhase of port A's beam angle at fHz.
func (f *FSA) beamHalfPhase(fHz float64) (sin, cos float64) {
	return halfPhase(f.BeamAngleDeg(PortA, fHz))
}

// halfCosines returns cos(ψ/2) for port A and port B, given the half phases
// (su, cu) of the arrival direction and (sv, cv) of port A's beam. The
// explicit conversions round each product, so no platform fuses them into
// an FMA and every caller gets bit-identical values.
func halfCosines(su, cu, sv, cv float64) (a, b float64) {
	p, q := float64(cu*cv), float64(su*sv)
	return p + q, p - q
}

// arrayFactors returns the normalized magnitude of the tapered array
// factor |Σ w_k exp(jkψ)| / Σw at two array phases at once, given their
// half-angle cosines ca = cos(ψa/2) and cb = cos(ψb/2) — port A's and port
// B's in every caller. The taper is symmetric about the array centre, so
// the sum folds to a real cosine sum: for an even element count N,
// |2·Σ_m w_{N/2+m}·cos((2m+1)·ψ/2)|, and for odd N the same over
// cos(2m·ψ/2) with the centre weight halved (f.half holds the folded
// weights). The cosines of successive multiples come from the Chebyshev
// recurrence cos((k+2)t) = 2·cos(2t)·cos(kt) − cos((k−2)t) with
// cos(2t) = 2c² − 1, so one evaluation costs one multiply-add pair per
// folded weight. The two recurrences are independent; running them in one
// loop lets the CPU overlap their latency chains. Unity at ψ = 0 up to
// rounding; first sidelobe ≈ −40 dB.
func (f *FSA) arrayFactors(ca, cb float64) (a, b float64) {
	cosA, cosB := 2*ca*ca-1, 2*cb*cb-1
	twoA, twoB := 2*cosA, 2*cosB
	// Even arrays sum the odd multiples of ψ/2 starting from cos(±ψ/2) = c;
	// odd arrays sum the even multiples starting from cos 0 = 1, cos(−ψ).
	prevA, curA, prevB, curB := ca, ca, cb, cb
	if f.cfg.Elements%2 == 1 {
		prevA, curA, prevB, curB = cosA, 1, cosB, 1
	}
	var sumA, sumB float64
	for _, w := range f.half {
		sumA += w * curA
		sumB += w * curB
		prevA, curA = curA, twoA*curA-prevA
		prevB, curB = curB, twoB*curB-prevB
	}
	return math.Abs(sumA) * f.afScale, math.Abs(sumB) * f.afScale
}

// envelopes returns the two ports' mode-independent round-trip reflection
// amplitudes at half-angle cosines ca and cb. With
// g = max(peakGain + 20·log10(af), floor) the two-way amplitude 10^(2g/20)
// collapses to max(af, afFloor)²·ampPeak: algebraically identical to
// exponentiating the dB-form round-trip gain 2g, numerically within ~1 ulp
// of it.
func (f *FSA) envelopes(ca, cb float64) (a, b float64) {
	afA, afB := f.arrayFactors(ca, cb)
	if afA < f.afFloor {
		afA = f.afFloor
	}
	if afB < f.afFloor {
		afB = f.afFloor
	}
	return afA * afA * f.ampPeak, afB * afB * f.ampPeak
}

// ReflectionAmplitude returns the total linear *voltage* reflection factor
// of the whole FSA (both ports) for a signal at fHz from angleDeg, relative
// to an ideal isotropic 0 dBi² reflector. The two ports' contributions add
// in amplitude (they share the aperture coherently).
func (f *FSA) ReflectionAmplitude(fHz, angleDeg float64) float64 {
	return f.ReflectionAmplitudeWithModes(f.modes[0], f.modes[1], fHz, angleDeg)
}

// ReflectionAmplitudeWithModes is ReflectionAmplitude evaluated for an
// explicit pair of port modes (A, B) instead of the stored switch state.
// It is the concurrency-safe form for callers that sweep hypothetical
// switching patterns (e.g. per-chirp toggling) without serializing on the
// shared FSA. It runs entirely in the linear amplitude domain off constants
// hoisted at construction — zero Log10/Pow per call — and through the same
// kernel as ReflectionEnvelopes, so a bulk fill combined per state with
// AbsorptiveFactor reproduces it bit for bit.
func (f *FSA) ReflectionAmplitudeWithModes(modeA, modeB Mode, fHz, angleDeg float64) float64 {
	su, cu := halfPhase(angleDeg)
	sv, cv := f.beamHalfPhase(fHz)
	a, b := f.envelopes(halfCosines(su, cu, sv, cv))
	if modeA == Absorptive {
		a *= f.ampAbs
	}
	if modeB == Absorptive {
		b *= f.ampAbs
	}
	return a + b
}

// AbsorptiveFactor returns the linear voltage factor
// 10^(−AbsorptionReturnLossDB/20) that an absorptive port's reflection
// retains — the scalar that turns a port's mode-independent reflection
// amplitude into its absorptive-mode value.
func (f *FSA) AbsorptiveFactor() float64 { return f.ampAbs }

// BeamTableWidth is the number of float64s BeamTable stores per grid
// sample.
const BeamTableWidth = 2

// BeamTable fills dst with the target-independent half of the pattern
// kernel over the frequency grid freq: with n = len(freq), dst[i] and
// dst[n+i] receive cos v and sin v of port A's beam half phase
// v = (π/2)·sin θ_A(freq[i]). The table depends only on the band and the
// scan range, not on the element count, gains or floors, so one fill per
// capture serves every node whose FSA shares those two with f. dst must
// have BeamTableWidth·len(freq) elements.
func (f *FSA) BeamTable(freq, dst []float64) {
	n := len(freq)
	cosV, sinV := dst[:n:n], dst[n:2*n:2*n]
	for i, fHz := range freq {
		sinV[i], cosV[i] = f.beamHalfPhase(fHz)
	}
}

// ReflectionEnvelopes is the two-port bulk fill: pa[i] and pb[i] receive
// port A's and port B's mode-independent round-trip reflection amplitude
// (af², floored at the backlobe level, times 10^(peakGain/10)) toward
// angleDeg at grid sample i of a BeamTable. Combined per switch state with
// AbsorptiveFactor they reproduce ReflectionAmplitudeWithModes bit for bit.
// Per sample it costs two products and two folded cosine sums — no
// transcendental — because both ports share the table row and the target's
// half phase is computed once per call. pa and pb must have the table's
// grid length; they may alias the table's cos and sin halves (each sample
// is read before it is written), so a caller can build the table in its
// own output rows.
func (f *FSA) ReflectionEnvelopes(table []float64, angleDeg float64, pa, pb []float64) {
	n := len(pa)
	cosV, sinV := table[:n:n], table[n:2*n:2*n]
	pb = pb[:n]
	su, cu := halfPhase(angleDeg)
	for i := range pa {
		pa[i], pb[i] = f.envelopes(halfCosines(su, cu, sinV[i], cosV[i]))
	}
}

// PortCouplingDBi returns the gain with which a signal at fHz arriving from
// angleDeg is delivered *into* the given port when that port is absorptive.
// A reflective port delivers nothing to its detector (the switch shorts it
// to ground), reported as -Inf.
func (f *FSA) PortCouplingDBi(p Port, fHz, angleDeg float64) float64 {
	if f.ModeOf(p) == Reflective {
		return math.Inf(-1)
	}
	return f.GainDBi(p, fHz, angleDeg)
}
