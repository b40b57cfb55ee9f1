package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ap"
	"repro/internal/fsa"
	"repro/internal/node"
	"repro/internal/waveform"
)

// ErrRateUnsupported reports a requested data rate outside what the node's
// hardware sustains — the switch-limited band of §9.5. Uplink errors wrap
// it (the milback facade re-exports it as milback.ErrOutOfBand).
var ErrRateUnsupported = errors.New("rate outside sustainable band")

// DownlinkResult reports one AP→node payload transfer (§6.1/§6.2).
type DownlinkResult struct {
	// Tones is the orientation-derived carrier pair used.
	Tones waveform.TonePair
	// Data is the payload the node decoded.
	Data []byte
	// BitErrors counts bit mismatches against the transmitted payload.
	BitErrors int
	// BitsSent is the number of payload bits.
	BitsSent int
	// SINRdB is the node-measured per-port SINR (port A).
	SINRdB float64
}

// BER returns the measured bit error rate.
func (r DownlinkResult) BER() float64 {
	if r.BitsSent == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.BitsSent)
}

// downlinkPilot is the number of known calibration symbols the node uses to
// set its decision thresholds before the payload.
const downlinkPilot = 8

// Downlink sends payload bytes from the AP to the node using OAQFM with the
// tone pair chosen for orientationDeg (normally the AP-side estimate from
// Localize). symbolRate is symbols/s — 18 Msym/s is the paper's 36 Mbps
// maximum. Deterministic for a given seed.
func (s *System) Downlink(n *node.Node, orientationDeg float64, payload []byte,
	symbolRate float64, seed int64) (DownlinkResult, error) {
	if symbolRate <= 0 {
		return DownlinkResult{}, fmt.Errorf("core: symbol rate must be positive, got %g", symbolRate)
	}
	if len(payload) == 0 {
		return DownlinkResult{}, fmt.Errorf("core: empty payload")
	}
	lease := s.capture.Acquire(n.AzimuthRad(), seed)
	defer lease.Close()
	n.SetPorts(fsa.Absorptive, fsa.Absorptive)
	tones := ap.SelectTonePair(n.FSA, orientationDeg)
	ns := lease.Noise

	txPower := s.EffectiveTxPowerW(n)
	txGain := s.cfg.AP.TxGainDBi

	// Pilot: alternating 11/00 so the node can measure its on/off levels.
	var onA, onB, offA, offB float64
	for i := 0; i < downlinkPilot; i++ {
		sym := waveform.Symbol11
		if i%2 == 1 {
			sym = waveform.Symbol00
		}
		r := n.ReceiveSymbol(sym, tones, txPower, txGain, symbolRate, ns)
		if i%2 == 0 {
			onA += r.VoltsA
			onB += r.VoltsB
		} else {
			offA += r.VoltsA
			offB += r.VoltsB
		}
	}
	half := float64(downlinkPilot / 2)
	thrA := (onA/half + offA/half) / 2
	thrB := (onB/half + offB/half) / 2
	if thrA <= 0 || thrB <= 0 {
		return DownlinkResult{}, fmt.Errorf("core: downlink pilot produced no signal (thresholds %g/%g)", thrA, thrB)
	}

	bits := waveform.BytesToBits(payload)
	syms := tones.EncodeBits(bits)
	decoded := make([]waveform.Symbol, len(syms))
	for i, sym := range syms {
		r := n.ReceiveSymbol(sym, tones, txPower, txGain, symbolRate, ns)
		decoded[i] = decodeWithThresholds(r, thrA, thrB, tones)
	}
	gotBits := tones.DecodeSymbols(decoded, len(bits))
	errs := 0
	for i := range bits {
		if bits[i] != gotBits[i] {
			errs++
		}
	}
	sinr := n.DownlinkSINR(fsa.PortA, tones, txPower, txGain, symbolRate)
	return DownlinkResult{
		Tones:     tones,
		Data:      waveform.BitsToBytes(gotBits),
		BitErrors: errs,
		BitsSent:  len(bits),
		SINRdB:    10 * log10(sinr),
	}, nil
}

// decodeWithThresholds decides a symbol with per-port thresholds.
func decodeWithThresholds(r node.DownlinkReading, thrA, thrB float64, tones waveform.TonePair) waveform.Symbol {
	if tones.Degenerate() {
		if r.VoltsA > thrA || r.VoltsB > thrB {
			return waveform.Symbol11
		}
		return waveform.Symbol00
	}
	return waveform.SymbolFromTones(r.VoltsA > thrA, r.VoltsB > thrB)
}

// UplinkResult reports one node→AP payload transfer (§6.3).
type UplinkResult struct {
	Tones     waveform.TonePair
	Data      []byte
	BitErrors int
	BitsSent  int
	// SNRdB is the closed-form link SNR at this distance/rate (Fig 15's
	// y-axis quantity).
	SNRdB float64
}

// BER returns the measured bit error rate.
func (r UplinkResult) BER() float64 {
	if r.BitsSent == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.BitsSent)
}

// uplinkPilot is the channel-estimation prefix length in symbols.
const uplinkPilot = 8

// Uplink carries payload bytes from the node to the AP: the AP transmits the
// two-tone query, the node piggybacks its bits by switching its ports, and
// the AP demodulates through the Fig 7 receive chain. bitRate is the uplink
// data rate in bits/s (10 and 40 Mbps in Fig 15).
func (s *System) Uplink(n *node.Node, orientationDeg float64, payload []byte,
	bitRate float64, seed int64) (UplinkResult, error) {
	if bitRate <= 0 {
		return UplinkResult{}, fmt.Errorf("core: bit rate must be positive, got %g", bitRate)
	}
	if len(payload) == 0 {
		return UplinkResult{}, fmt.Errorf("core: empty payload")
	}
	lease := s.capture.Acquire(n.AzimuthRad(), seed)
	defer lease.Close()
	tones := ap.SelectTonePair(n.FSA, orientationDeg)
	symbolRate := bitRate / float64(tones.BitsPerSymbol())
	if !n.SwitchA.CanSustainSymbolRate(symbolRate) {
		return UplinkResult{}, fmt.Errorf("core: %w: switches cannot sustain %g sym/s", ErrRateUnsupported, symbolRate)
	}
	ns := lease.Noise

	bits := waveform.BytesToBits(payload)
	dataSyms := tones.EncodeBits(bits)
	syms := append(ap.PilotSymbols(uplinkPilot), dataSyms...)
	ba, bb := s.AP.SynthesizeUplink(lease.Pointing(), n.FSA, syms, tones, n.Distance(), n.OrientationDeg,
		symbolRate, 8, ns)
	got, err := s.AP.DemodulateUplink(ba, bb, uplinkPilot, len(syms))
	if err != nil {
		return UplinkResult{}, fmt.Errorf("core: uplink: %w", err)
	}
	gotBits := tones.DecodeSymbols(got, len(bits))
	errs := 0
	for i := range bits {
		if bits[i] != gotBits[i] {
			errs++
		}
	}
	budget := s.AP.UplinkBudget(lease.Pointing(), n.FSA, n.Distance(), n.OrientationDeg, bitRate)
	return UplinkResult{
		Tones:     tones,
		Data:      waveform.BitsToBytes(gotBits),
		BitErrors: errs,
		BitsSent:  len(bits),
		SNRdB:     budget.SNRdB(),
	}, nil
}

func log10(x float64) float64 {
	if x <= 0 {
		return -300
	}
	return math.Log10(x)
}
