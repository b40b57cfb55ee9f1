package node

import (
	"fmt"
	"math"

	"repro/internal/rfsim"
)

// EnvelopeDetector models an ADL6010-class Schottky envelope detector:
// 50 Ω matched input (which is what makes the FSA port absorptive when the
// switch selects the detector), an output voltage linear in the RF input
// envelope, a video-bandwidth-limited response, and additive output noise.
type EnvelopeDetector struct {
	// ResponsivityVPerV is the output volts per volt of input envelope
	// (ADL6010: ≈2.1 V/V in its linear-responding region).
	ResponsivityVPerV float64
	// VideoBandwidthHz limits how fast the output can follow the envelope
	// (sets the 36 Mbps downlink ceiling, §9.4).
	VideoBandwidthHz float64
	// NoiseVrmsAtFullBW is the RMS output noise measured over the full
	// video bandwidth. Noise over a smaller measurement bandwidth scales
	// as sqrt(BW/VideoBandwidthHz).
	NoiseVrmsAtFullBW float64
	// InputImpedanceOhms is the RF input impedance (50 Ω, matched to the
	// FSA port so absorptive mode reflects ≈ nothing).
	InputImpedanceOhms float64
}

// DefaultDetector returns the detector model calibrated for MilBack's node
// (see DESIGN.md §4.6 for the calibration).
func DefaultDetector() *EnvelopeDetector {
	return &EnvelopeDetector{
		ResponsivityVPerV:  2.1,
		VideoBandwidthHz:   1e9, // Fig 14 is measured "for downlink bandwidth of 1 GHz"
		NoiseVrmsAtFullBW:  0.085,
		InputImpedanceOhms: 50,
	}
}

func (d *EnvelopeDetector) validate() {
	if d.ResponsivityVPerV <= 0 || d.VideoBandwidthHz <= 0 || d.InputImpedanceOhms <= 0 {
		panic(fmt.Sprintf("node: invalid detector config %+v", d))
	}
	if d.NoiseVrmsAtFullBW < 0 {
		panic("node: negative detector noise")
	}
}

// EnvelopeVoltsFromPower converts an RF input power (W) into the input
// envelope amplitude (V) across the detector's input impedance:
// P = a²/(2Z) ⇒ a = sqrt(2 Z P).
func (d *EnvelopeDetector) EnvelopeVoltsFromPower(pWatts float64) float64 {
	d.validate()
	if pWatts < 0 {
		panic(fmt.Sprintf("node: negative detector input power %g", pWatts))
	}
	return math.Sqrt(2 * d.InputImpedanceOhms * pWatts)
}

// OutputVolts returns the noiseless detector output for an RF input power.
func (d *EnvelopeDetector) OutputVolts(pWatts float64) float64 {
	return d.ResponsivityVPerV * d.EnvelopeVoltsFromPower(pWatts)
}

// NoiseVrms returns the detector's RMS output noise over a measurement
// bandwidth bwHz (clamped to the video bandwidth).
func (d *EnvelopeDetector) NoiseVrms(bwHz float64) float64 {
	d.validate()
	if bwHz <= 0 {
		panic(fmt.Sprintf("node: non-positive measurement bandwidth %g", bwHz))
	}
	if bwHz > d.VideoBandwidthHz {
		bwHz = d.VideoBandwidthHz
	}
	return d.NoiseVrmsAtFullBW * math.Sqrt(bwHz/d.VideoBandwidthHz)
}

// DetectSeries runs the detector over a series of instantaneous RF input
// powers sampled at fs, applying the video-bandwidth RC response and adding
// output noise drawn from ns. Pass a nil noise source for a noiseless run.
func (d *EnvelopeDetector) DetectSeries(pWatts []float64, fs float64, ns *rfsim.NoiseSource) []float64 {
	d.validate()
	if fs <= 0 {
		panic(fmt.Sprintf("node: non-positive detector sample rate %g", fs))
	}
	tau := 1 / (2 * math.Pi * d.VideoBandwidthHz)
	alpha := 1 - math.Exp(-1/(fs*tau))
	out := make([]float64, len(pWatts))
	var y float64
	// Noise within the simulation bandwidth fs/2 (cannot exceed video BW).
	sigma := 0.0
	if ns != nil {
		sigma = d.NoiseVrms(fs / 2)
	}
	for i, p := range pWatts {
		v := d.OutputVolts(p)
		y += alpha * (v - y)
		out[i] = y
		if ns != nil {
			out[i] += ns.Gaussian(sigma)
		}
	}
	return out
}
