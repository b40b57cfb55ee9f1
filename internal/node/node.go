package node

import (
	"fmt"
	"math"

	"repro/internal/fsa"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// Config assembles a node.
type Config struct {
	FSA      fsa.Config
	Detector *EnvelopeDetector
	Power    PowerModel
	// ADCSampleRateHz is the MCU's ADC rate reading the detectors. The
	// prototype samples at 1 MHz (§9.3).
	ADCSampleRateHz float64
	// ADCBits is the ADC resolution (MSP430: 12 bits).
	ADCBits int
	// ADCFullScaleV is the ADC full-scale input voltage.
	ADCFullScaleV float64
}

// DefaultConfig returns the prototype parameters of §8/§9.
func DefaultConfig() Config {
	return Config{
		FSA:             fsa.DefaultConfig(),
		Detector:        DefaultDetector(),
		Power:           DefaultPowerModel(),
		ADCSampleRateHz: 1e6,
		ADCBits:         12,
		ADCFullScaleV:   1.2,
	}
}

// Node is a MilBack backscatter node: dual-port FSA + two switches + two
// envelope detectors + MCU (Fig 4). Position and orientation place it in the
// simulation plane; OrientationDeg is the azimuth of the AP in the node's
// antenna frame (0 = FSA normal facing the AP).
type Node struct {
	FSA      *fsa.FSA
	SwitchA  *Switch
	SwitchB  *Switch
	DetA     *EnvelopeDetector
	DetB     *EnvelopeDetector
	Power    PowerModel
	Position rfsim.Point
	// OrientationDeg is the true orientation (ground truth the estimators
	// are judged against).
	OrientationDeg float64

	cfg Config
}

// New builds a node at the given position/orientation.
func New(cfg Config, pos rfsim.Point, orientationDeg float64) (*Node, error) {
	f, err := fsa.New(cfg.FSA)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if cfg.Detector == nil {
		return nil, fmt.Errorf("node: nil detector")
	}
	if cfg.ADCSampleRateHz <= 0 {
		return nil, fmt.Errorf("node: ADC sample rate must be positive, got %g", cfg.ADCSampleRateHz)
	}
	if cfg.ADCBits < 1 || cfg.ADCBits > 32 {
		return nil, fmt.Errorf("node: ADC bits %d outside [1,32]", cfg.ADCBits)
	}
	if cfg.ADCFullScaleV <= 0 {
		return nil, fmt.Errorf("node: ADC full scale must be positive, got %g", cfg.ADCFullScaleV)
	}
	n := &Node{
		FSA:            f,
		SwitchA:        DefaultSwitch(),
		SwitchB:        DefaultSwitch(),
		DetA:           cfg.Detector,
		DetB:           cfg.Detector,
		Power:          cfg.Power,
		Position:       pos,
		OrientationDeg: orientationDeg,
		cfg:            cfg,
	}
	n.applySwitches()
	return n, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config, pos rfsim.Point, orientationDeg float64) *Node {
	n, err := New(cfg, pos, orientationDeg)
	if err != nil {
		panic(err)
	}
	return n
}

// Config returns the node's construction parameters.
func (n *Node) Config() Config { return n.cfg }

// Distance returns the node's range from the AP (origin).
func (n *Node) Distance() float64 { return n.Position.Distance(rfsim.Point{}) }

// AzimuthRad returns the node's direction as seen from the AP.
func (n *Node) AzimuthRad() float64 { return n.Position.AngleFrom(rfsim.Point{}) }

// SetPorts drives both switches.
func (n *Node) SetPorts(a, b fsa.Mode) {
	n.SwitchA.Set(a)
	n.SwitchB.Set(b)
	n.applySwitches()
}

func (n *Node) applySwitches() {
	n.FSA.SetModes(n.SwitchA.State(), n.SwitchB.State())
}

// TonePairForOrientation returns the OAQFM carriers that align the two
// beams toward the AP for orientation deg — the lookup behind §6.1.
func (n *Node) TonePairForOrientation(deg float64) waveform.TonePair {
	return waveform.TonePair{
		FA: n.FSA.FrequencyForAngle(fsa.PortA, deg),
		FB: n.FSA.FrequencyForAngle(fsa.PortB, deg),
	}
}

// ReceivedPowerW returns the RF power (W) delivered into the given port's
// detector for a tone at fHz transmitted by the AP at txPowerW through a
// horn of apGainDBi, with the node at its current position/orientation. A
// reflective port receives nothing.
func (n *Node) ReceivedPowerW(p fsa.Port, fHz, txPowerW, apGainDBi float64) float64 {
	if txPowerW < 0 {
		panic(fmt.Sprintf("node: negative tx power %g", txPowerW))
	}
	coupling := n.FSA.PortCouplingDBi(p, fHz, n.OrientationDeg)
	if math.IsInf(coupling, -1) {
		return 0
	}
	amp := rfsim.OneWayAmplitude(apGainDBi, coupling, n.Distance(), fHz)
	return txPowerW * amp * amp
}

// ADCQuantize quantizes a detector voltage series through the MCU's ADC:
// clamp to [0, full scale], round to the nearest LSB.
func (n *Node) ADCQuantize(v []float64) []float64 {
	levels := float64(uint64(1)<<uint(n.cfg.ADCBits)) - 1
	lsb := n.cfg.ADCFullScaleV / levels
	out := make([]float64, len(v))
	for i, x := range v {
		if x < 0 {
			x = 0
		}
		if x > n.cfg.ADCFullScaleV {
			x = n.cfg.ADCFullScaleV
		}
		out[i] = math.Round(x/lsb) * lsb
	}
	return out
}

// DownlinkReading is the pair of detector voltages the MCU integrates over
// one OAQFM symbol.
type DownlinkReading struct {
	VoltsA, VoltsB float64
}

// ReceiveSymbol produces the detector voltages for one transmitted OAQFM
// symbol over the given tone pair, including detector noise integrated over
// the symbol bandwidth. It is the per-symbol signal path of §6.2: each
// port's detector sees only the tone its beam admits.
func (n *Node) ReceiveSymbol(sym waveform.Symbol, tones waveform.TonePair,
	txPowerW, apGainDBi, symbolRateHz float64, ns *rfsim.NoiseSource) DownlinkReading {
	if symbolRateHz <= 0 {
		panic(fmt.Sprintf("node: non-positive symbol rate %g", symbolRateHz))
	}
	var pa, pb float64
	if sym.ToneA() || (tones.Degenerate() && sym.ToneB()) {
		pa += n.ReceivedPowerW(fsa.PortA, tones.FA, txPowerW, apGainDBi)
		pb += n.ReceivedPowerW(fsa.PortB, tones.FA, txPowerW, apGainDBi)
	}
	if sym.ToneB() && !tones.Degenerate() {
		// Tone B's power adds at both ports; at port A it is the sidelobe
		// interference that makes Fig 14 an SINR (not SNR) plot.
		pa += n.ReceivedPowerW(fsa.PortA, tones.FB, txPowerW, apGainDBi)
		pb += n.ReceivedPowerW(fsa.PortB, tones.FB, txPowerW, apGainDBi)
	}
	va := n.DetA.OutputVolts(pa)
	vb := n.DetB.OutputVolts(pb)
	if ns != nil {
		va += ns.Gaussian(n.DetA.NoiseVrms(symbolRateHz))
		vb += ns.Gaussian(n.DetB.NoiseVrms(symbolRateHz))
	}
	if va < 0 {
		va = 0
	}
	if vb < 0 {
		vb = 0
	}
	return DownlinkReading{VoltsA: va, VoltsB: vb}
}

// DownlinkSINR computes the signal-to-interference-plus-noise ratio (linear)
// seen at one port's MCU input for its assigned tone: the wanted tone's
// detector voltage squared over the other tone's leakage voltage squared
// plus detector noise over the symbol bandwidth. This is the quantity
// Fig 14 plots.
func (n *Node) DownlinkSINR(p fsa.Port, tones waveform.TonePair,
	txPowerW, apGainDBi, symbolRateHz float64) float64 {
	if symbolRateHz <= 0 {
		panic(fmt.Sprintf("node: non-positive symbol rate %g", symbolRateHz))
	}
	var wantF, leakF float64
	var det *EnvelopeDetector
	switch p {
	case fsa.PortA:
		wantF, leakF, det = tones.FA, tones.FB, n.DetA
	case fsa.PortB:
		wantF, leakF, det = tones.FB, tones.FA, n.DetB
	default:
		panic(fmt.Sprintf("node: invalid port %d", int(p)))
	}
	sig := det.OutputVolts(n.ReceivedPowerW(p, wantF, txPowerW, apGainDBi))
	var interf float64
	if !tones.Degenerate() {
		interf = det.OutputVolts(n.ReceivedPowerW(p, leakF, txPowerW, apGainDBi))
	}
	noise := det.NoiseVrms(symbolRateHz)
	den := interf*interf + noise*noise
	if den == 0 {
		return math.Inf(1)
	}
	return sig * sig / den
}

// ModePower returns the node's power draw (W) in the given operating mode at
// the given per-switch toggle rate (see PowerModel.Power).
func (n *Node) ModePower(m OperatingMode, toggleRateHz float64) float64 {
	return n.Power.Power(m, toggleRateHz)
}
