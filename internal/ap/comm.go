package ap

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/fsa"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// OOKFallbackDeg is the orientation magnitude below which the link falls
// back to single-carrier OOK (§6.2): near normal incidence the two beams'
// frequencies nearly coincide, the patterns overlap, and independent
// per-port keying would interfere with itself. 2° keeps the fallback well
// inside the ~10° beamwidth.
const OOKFallbackDeg = 2.0

// SelectTonePair converts an orientation estimate into the OAQFM carrier
// pair through the node's FSA beam map (§6.1): the two frequencies whose
// beams point at the AP for that orientation. Orientations within
// OOKFallbackDeg of normal collapse to the degenerate single-carrier pair
// (§6.2's OOK fallback).
func SelectTonePair(f *fsa.FSA, orientationDeg float64) waveform.TonePair {
	if math.Abs(orientationDeg) < OOKFallbackDeg {
		fc := f.FrequencyForAngle(fsa.PortA, 0)
		return waveform.TonePair{FA: fc, FB: fc}
	}
	return waveform.TonePair{
		FA: f.FrequencyForAngle(fsa.PortA, orientationDeg),
		FB: f.FrequencyForAngle(fsa.PortB, orientationDeg),
	}
}

// UplinkLink is the closed-form uplink link budget at one distance — the
// model behind Fig 15. The "signal" is the amplitude swing between the
// node's reflective and absorptive states of the port carrying the tone;
// noise is thermal over the per-branch symbol bandwidth.
type UplinkLink struct {
	// SNRLinear is the per-branch SNR (linear power ratio).
	SNRLinear float64
	// SignalW is the baseband signal power in watts.
	SignalW float64
	// NoiseW is the noise power in watts.
	NoiseW float64
}

// SNRdB returns the link SNR in dB.
func (u UplinkLink) SNRdB() float64 { return dsp.DB(u.SNRLinear) }

// UplinkBudget computes the uplink link budget for a node with FSA nf at
// distance d along the beam pointed at steerRad (radians) and orientation
// orientDeg, signalling at bitRate bits/s with the tone pair chosen for its
// orientation. Per branch, the AP transmits
// TxPowerW/2; the node toggles that tone's port between reflective and
// absorptive, producing an amplitude swing of (a_on − a_off); the effective
// antipodal signal amplitude is half the swing.
func (a *AP) UplinkBudget(steerRad float64, nf *fsa.FSA, d, orientDeg, bitRate float64) UplinkLink {
	if d <= 0 || bitRate <= 0 {
		panic(fmt.Sprintf("ap: invalid uplink budget args d=%g rate=%g", d, bitRate))
	}
	tones := SelectTonePair(nf, orientDeg)
	aOn, aOff := a.uplinkAmplitudes(steerRad, nf, tones.FA, fsa.PortA, d, orientDeg)
	blk := math.Pow(10, -a.nodeObstructionLossDB(steerRad, d)/10)
	swing := (aOn - aOff) / 2 * blk
	sig := swing * swing
	// Per-branch bandwidth = symbol rate = bitRate / bits-per-symbol.
	bw := bitRate / float64(tones.BitsPerSymbol())
	noise := a.noisePowerW(bw)
	return UplinkLink{SNRLinear: sig / noise, SignalW: sig, NoiseW: noise}
}

// uplinkAmplitudes returns the received baseband amplitudes (√W) of one
// tone's backscatter when the carrying port is reflective vs absorptive,
// with the other port held absorptive (its leakage is part of both states
// and cancels in the swing), through horns pointed at steerRad.
func (a *AP) uplinkAmplitudes(steerRad float64, nf *fsa.FSA, toneHz float64, port fsa.Port, d, orientDeg float64) (on, off float64) {
	// The AP steers at the node before communicating, so the antennas see
	// the node at boresight.
	txG, rxG := a.hornGainsDBi(steerRad, steerRad)
	txAmp := math.Sqrt(a.cfg.TxPowerW / 2)
	loss := a.implementationLoss()
	prevA, prevB := nf.ModeOf(fsa.PortA), nf.ModeOf(fsa.PortB)
	defer nf.SetModes(prevA, prevB)

	other := fsa.PortB
	if port == fsa.PortB {
		other = fsa.PortA
	}
	nf.SetMode(other, fsa.Absorptive)

	nf.SetMode(port, fsa.Reflective)
	gOn := 20 * math.Log10(nf.ReflectionAmplitude(toneHz, orientDeg))
	on = rfsim.BackscatterAmplitude(txG, rxG, gOn/2, d, toneHz) * txAmp * loss

	nf.SetMode(port, fsa.Absorptive)
	gOff := 20 * math.Log10(nf.ReflectionAmplitude(toneHz, orientDeg))
	off = rfsim.BackscatterAmplitude(txG, rxG, gOff/2, d, toneHz) * txAmp * loss
	return on, off
}

// UplinkStream is the simulated mixer-output baseband of one receive branch
// (one tone) across a whole uplink burst.
type UplinkStream struct {
	Samples []complex128
	// SamplesPerSymbol at the simulation rate.
	SamplesPerSymbol int
}

// SynthesizeUplink simulates the §6.3 uplink through the Fig 7 receive
// chain's front half: for each OAQFM symbol the node sets its port switches,
// and each branch's mixer output carries a DC term (self-interference +
// static clutter) plus the node's switched reflection at baseband, plus
// receiver noise, with the horns pointed at steerRad (radians) and the node
// on that boresight at distance d. fsPerSymbol sets the oversampling
// (samples per symbol).
func (a *AP) SynthesizeUplink(steerRad float64, nf *fsa.FSA, syms []waveform.Symbol, tones waveform.TonePair,
	d, orientDeg, symbolRate float64, fsPerSymbol int, ns *rfsim.NoiseSource) (branchA, branchB UplinkStream) {
	if d <= 0 || symbolRate <= 0 || fsPerSymbol < 1 {
		panic(fmt.Sprintf("ap: invalid uplink synth args d=%g rate=%g sps=%d", d, symbolRate, fsPerSymbol))
	}
	fs := symbolRate * float64(fsPerSymbol)
	n := len(syms) * fsPerSymbol
	sa := make([]complex128, n)
	sb := make([]complex128, n)
	noise := a.noisePowerW(fs / 2)

	// Static interference after the mixer: self-interference (TX leaking
	// into RX) plus clutter, all landing at DC with an arbitrary phase.
	selfAmp := math.Sqrt(a.cfg.TxPowerW/2) * math.Pow(10, -30.0/20) // −30 dB TX→RX coupling
	clutterDC := 0.0
	fc := (tones.FA + tones.FB) / 2
	clutter := a.clutterPaths(steerRad, fc)
	for _, p := range clutter {
		clutterDC += p.Amplitude * math.Sqrt(a.cfg.TxPowerW/2)
	}
	a.putClutter(clutter)
	dcA := complex(selfAmp+clutterDC, 0)
	dcB := dcA

	// Unknown channel phase per branch (round-trip carrier phase).
	tau := 2 * rfsim.PropagationDelay(d)
	phA := cmplx.Exp(complex(0, -2*math.Pi*tones.FA*tau))
	phB := cmplx.Exp(complex(0, -2*math.Pi*tones.FB*tau))

	prevA, prevB := nf.ModeOf(fsa.PortA), nf.ModeOf(fsa.PortB)
	defer nf.SetModes(prevA, prevB)
	txAmp := math.Sqrt(a.cfg.TxPowerW / 2)
	loss := a.implementationLoss()
	txG, rxG := a.hornGainsDBi(steerRad, steerRad)
	blk := math.Pow(10, -a.nodeObstructionLossDB(steerRad, d)/10)
	ampFor := func(tone float64) float64 {
		g := 20 * math.Log10(nf.ReflectionAmplitude(tone, orientDeg))
		return rfsim.BackscatterAmplitude(txG, rxG, g/2, d, tone) *
			txAmp * loss * blk
	}
	for j, sym := range syms {
		// §6.3: reflect = send 1, absorb = send 0, per port.
		modeA, modeB := fsa.Absorptive, fsa.Absorptive
		if sym.ToneA() {
			modeA = fsa.Reflective
		}
		if sym.ToneB() {
			modeB = fsa.Reflective
		}
		nf.SetModes(modeA, modeB)
		aA := ampFor(tones.FA)
		aB := ampFor(tones.FB)
		for i := 0; i < fsPerSymbol; i++ {
			idx := j*fsPerSymbol + i
			sa[idx] = dcA + complex(aA, 0)*phA
			sb[idx] = dcB + complex(aB, 0)*phB
		}
	}
	if ns != nil {
		ns.AddComplexAWGN(sa, noise)
		ns.AddComplexAWGN(sb, noise)
	}
	return UplinkStream{Samples: sa, SamplesPerSymbol: fsPerSymbol},
		UplinkStream{Samples: sb, SamplesPerSymbol: fsPerSymbol}
}

// DemodulateUplink recovers OAQFM symbols from the two branch streams:
// high-pass filtering removes the DC interference (the ZFHP filters of
// Fig 7), a known pilot prefix (alternating 11/00 symbols) provides the
// per-branch channel estimate, and each symbol is decided by correlating
// its integrate-and-dump value against the channel estimate.
func (a *AP) DemodulateUplink(branchA, branchB UplinkStream, pilot int, total int) ([]waveform.Symbol, error) {
	if pilot < 2 || pilot%2 != 0 {
		return nil, fmt.Errorf("ap: pilot length must be even and >= 2, got %d", pilot)
	}
	if total <= pilot {
		return nil, fmt.Errorf("ap: total symbols %d must exceed pilot %d", total, pilot)
	}
	bitsA, err := demodBranch(branchA, pilot, total)
	if err != nil {
		return nil, fmt.Errorf("ap: branch A: %w", err)
	}
	bitsB, err := demodBranch(branchB, pilot, total)
	if err != nil {
		return nil, fmt.Errorf("ap: branch B: %w", err)
	}
	out := make([]waveform.Symbol, total-pilot)
	for i := range out {
		out[i] = waveform.SymbolFromTones(bitsA[i], bitsB[i])
	}
	return out, nil
}

// PilotSymbols returns the alternating 11/00 pilot prefix of length n.
func PilotSymbols(n int) []waveform.Symbol {
	out := make([]waveform.Symbol, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = waveform.Symbol11
		} else {
			out[i] = waveform.Symbol00
		}
	}
	return out
}

func demodBranch(s UplinkStream, pilot, total int) ([]bool, error) {
	sps := s.SamplesPerSymbol
	if sps < 1 || len(s.Samples) < total*sps {
		return nil, fmt.Errorf("stream too short: %d samples for %d symbols x %d", len(s.Samples), total, sps)
	}
	// Remove the DC interference: subtract the stream mean (the FIR
	// high-pass of the real chain, idealized to avoid its group-delay
	// bookkeeping).
	mean := complex(0, 0)
	for _, v := range s.Samples[:total*sps] {
		mean += v
	}
	mean /= complex(float64(total*sps), 0)
	// Integrate and dump per symbol.
	sym := make([]complex128, total)
	for j := 0; j < total; j++ {
		var acc complex128
		for i := 0; i < sps; i++ {
			acc += s.Samples[j*sps+i] - mean
		}
		sym[j] = acc / complex(float64(sps), 0)
	}
	// Channel estimate from the pilot: ON symbols are even indices.
	var hOn, hOff complex128
	for j := 0; j < pilot; j++ {
		if j%2 == 0 {
			hOn += sym[j]
		} else {
			hOff += sym[j]
		}
	}
	hOn /= complex(float64((pilot+1)/2), 0)
	hOff /= complex(float64(pilot/2), 0)
	h := hOn - hOff
	if cmplx.Abs(h) == 0 {
		return nil, fmt.Errorf("zero channel estimate (no modulation visible)")
	}
	mid := (hOn + hOff) / 2
	bits := make([]bool, total-pilot)
	for j := pilot; j < total; j++ {
		bits[j-pilot] = real((sym[j]-mid)*cmplx.Conj(h)) > 0
	}
	return bits, nil
}

// nodeObstructionLossDB returns the one-way blocker loss toward a node
// assumed at range d along the boresight steerRad.
func (a *AP) nodeObstructionLossDB(steerRad, d float64) float64 {
	pos := rfsim.PolarPoint(d, steerRad)
	return a.scene.ObstructionLossDB(rfsim.Point{}, pos)
}
