package node

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/fsa"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// OrientationResult is the node-side orientation estimate (§5.2b).
type OrientationResult struct {
	// EstimateDeg is the final orientation estimate (average of both ports).
	EstimateDeg float64
	// PortADeg and PortBDeg are the per-port estimates before averaging.
	PortADeg, PortBDeg float64
	// PeakSeparationA/B are the measured Δt values (Fig 5's observable).
	PeakSeparationA, PeakSeparationB float64
}

// SampleField1Chirp produces the ADC sample streams of both detectors while
// the AP transmits one triangular chirp and both ports sit absorptive. The
// detector output follows the FSA's frequency-scanned gain: as the chirp
// sweeps, each port's beam sweeps across the AP and the detector voltage
// peaks when it aligns (Fig 5b). Samples are taken at the MCU ADC rate and
// quantized.
func (n *Node) SampleField1Chirp(c waveform.Chirp, txPowerW, apGainDBi float64,
	ns *rfsim.NoiseSource) (va, vb []float64) {
	if err := c.Validate(); err != nil {
		panic(fmt.Sprintf("node: %v", err))
	}
	n.SetPorts(fsa.Absorptive, fsa.Absorptive)
	fs := n.cfg.ADCSampleRateHz
	cnt := c.SampleCount(fs)
	pa := make([]float64, cnt)
	pb := make([]float64, cnt)
	for i := 0; i < cnt; i++ {
		f := c.FrequencyAt(float64(i) / fs)
		pa[i] = n.ReceivedPowerW(fsa.PortA, f, txPowerW, apGainDBi)
		pb[i] = n.ReceivedPowerW(fsa.PortB, f, txPowerW, apGainDBi)
	}
	va = n.DetA.DetectSeries(pa, fs, ns)
	vb = n.DetB.DetectSeries(pb, fs, ns)
	return n.ADCQuantize(va), n.ADCQuantize(vb)
}

// EstimateOrientation implements the §5.2b algorithm: measure the time
// separation between the up-sweep and down-sweep peaks on each detector,
// convert each Δt to the beam-aligned frequency, map that frequency to an
// angle through the port's beam map, and average the two ports (§9.3:
// "The estimation from two ports is averaged").
func (n *Node) EstimateOrientation(c waveform.Chirp, va, vb []float64) (OrientationResult, error) {
	if c.Shape != waveform.Triangular {
		return OrientationResult{}, fmt.Errorf("node: orientation sensing needs a triangular chirp, got %v", c.Shape)
	}
	fs := n.cfg.ADCSampleRateHz
	dtA, err := n.peakSeparation(va, fs, c)
	if err != nil {
		return OrientationResult{}, fmt.Errorf("node: port A: %w", err)
	}
	dtB, err := n.peakSeparation(vb, fs, c)
	if err != nil {
		return OrientationResult{}, fmt.Errorf("node: port B: %w", err)
	}
	fA := c.FrequencyForPeakSeparation(dtA)
	fB := c.FrequencyForPeakSeparation(dtB)
	angA := n.FSA.BeamAngleDeg(fsa.PortA, fA)
	angB := n.FSA.BeamAngleDeg(fsa.PortB, fB)
	return OrientationResult{
		EstimateDeg:     (angA + angB) / 2,
		PortADeg:        angA,
		PortBDeg:        angB,
		PeakSeparationA: dtA,
		PeakSeparationB: dtB,
	}, nil
}

// peakSeparation finds the up-sweep and down-sweep peaks of one detector
// trace and returns their time separation. The triangular chirp guarantees
// one peak in each half of the trace.
func (n *Node) peakSeparation(v []float64, fs float64, c waveform.Chirp) (float64, error) {
	if len(v) < 4 {
		return 0, fmt.Errorf("trace too short (%d samples)", len(v))
	}
	half := len(v) / 2
	up, okUp := dsp.MaxPeakInRange(v, 0, half)
	down, okDown := dsp.MaxPeakInRange(v, half, len(v))
	if !okUp || !okDown {
		return 0, fmt.Errorf("trace halves empty (%d samples)", len(v))
	}
	// Peak must carry real signal, not just noise: demand contrast over the
	// trace median (which sits at the pattern's gain floor) and an absolute
	// level several detector noise sigmas above zero.
	med := dsp.Median(v)
	floor := 8 * n.DetA.NoiseVrms(fs/2)
	if (up.Value <= 5*med && down.Value <= 5*med) || (up.Value < floor && down.Value < floor) {
		return 0, fmt.Errorf("no beam-crossing peaks above noise (peaks %.3g/%.3g, median %.3g, floor %.3g)",
			up.Value, down.Value, med, floor)
	}
	dt := (down.Position - up.Position) / fs
	if dt <= 0 || dt > c.Duration {
		return 0, fmt.Errorf("implausible peak separation %g s", dt)
	}
	return dt, nil
}

// DetectDirection decodes the AP's Field-1 direction announcement from a
// detector trace covering the whole field. chirpSamples is the per-chirp
// sample count at the ADC rate. Field 1 is three chirp slots long either
// way (§7/Fig 8): uplink fills all three with chirps, downlink leaves the
// middle slot empty (the gap), so the discriminator is whether the middle
// slot carries beam-crossing energy. This is robust at every orientation,
// including near the scan edges where per-chirp peaks crowd the slot
// boundaries.
func DetectDirection(v []float64, chirpSamples int) (waveform.Direction, error) {
	if chirpSamples < 4 {
		return 0, fmt.Errorf("node: chirp window too short (%d samples)", chirpSamples)
	}
	if len(v) < 3*chirpSamples {
		return 0, fmt.Errorf("node: Field-1 trace too short (%d samples for 3 slots of %d)",
			len(v), chirpSamples)
	}
	slotMax := func(k int) float64 {
		lo, hi := k*chirpSamples, (k+1)*chirpSamples
		if hi > len(v) {
			hi = len(v)
		}
		m := 0.0
		// Exclude a small guard band at the slot edges so a peak sitting on
		// the boundary is not double-attributed.
		guard := chirpSamples / 32
		for i := lo + guard; i < hi-guard; i++ {
			if v[i] > m {
				m = v[i]
			}
		}
		return m
	}
	med := dsp.Median(v)
	outer := math.Max(slotMax(0), slotMax(2))
	if outer <= 5*med || outer == 0 {
		return 0, fmt.Errorf("node: no Field-1 chirps visible (outer max %.3g, median %.3g)", outer, med)
	}
	mid := slotMax(1)
	if mid > med+0.4*(outer-med) {
		return waveform.Uplink, nil
	}
	return waveform.Downlink, nil
}

// Field1Trace simulates the detector output across an entire Field-1
// preamble for the given direction announcement: the AP sends 3 back-to-back
// triangular chirps (uplink) or 2 chirps separated by a gap (downlink),
// while the node listens with both ports absorptive.
func (n *Node) Field1Trace(spec waveform.PacketSpec, txPowerW, apGainDBi float64,
	ns *rfsim.NoiseSource) []float64 {
	c := spec.OrientationChirp
	fs := n.cfg.ADCSampleRateHz
	gapSamples := int(spec.Field1Gap * fs)
	var out []float64
	appendChirp := func() {
		va, _ := n.SampleField1Chirp(c, txPowerW, apGainDBi, ns)
		out = append(out, va...)
	}
	appendGap := func() {
		gap := make([]float64, gapSamples)
		if ns != nil {
			sigma := n.DetA.NoiseVrms(fs / 2)
			for i := range gap {
				g := ns.Gaussian(sigma)
				if g < 0 {
					g = 0
				}
				gap[i] = g
			}
		}
		out = append(out, n.ADCQuantize(gap)...)
	}
	if spec.Direction == waveform.Uplink {
		for i := 0; i < waveform.UplinkField1Chirps; i++ {
			appendChirp()
		}
	} else {
		appendChirp()
		appendGap()
		appendChirp()
	}
	return out
}
