package proto

import (
	"math"

	"repro/internal/ber"
)

// uplinkRates is the rate ladder the uplink rate choice picks from, fastest
// first, bounded by the paper's 160 Mbps switch limit (§9.5).
var uplinkRates = [...]float64{160e6, 80e6, 40e6, 20e6, 10e6, 5e6}

const (
	// targetBER is the bit error rate the chosen uplink rate must sustain.
	targetBER = 1e-6
	// adaptRefRate is the rate at which AdaptUplink evaluates the link
	// budget.
	adaptRefRate = 10e6
)

// pickRate returns the fastest ladder rate whose predicted BER meets
// targetBER, given the SNR (dB) at adaptRefRate. Noise power grows linearly
// with bandwidth (∝ rate), so the SNR at rate r is
// SNR(r₀) − 10·log10(r/r₀). If even the slowest rate misses the target, it
// returns the slowest rate and false.
func pickRate(snrAtRefDB float64) (float64, bool) {
	needSNR := ber.SNRdBForBER(targetBER, ber.DefaultProcessingGainDB)
	for _, r := range uplinkRates {
		if snrAtRefDB-10*math.Log10(r/adaptRefRate) >= needSNR {
			return r, true
		}
	}
	return uplinkRates[len(uplinkRates)-1], false
}

// AdaptUplink measures the session's current uplink SNR (via the link
// budget at the node's true orientation and range, the beam pointed at the
// node) and returns the fastest
// ladder rate that sustains BER ≤ 1e-6. The bool reports whether the target
// is achievable at all.
func (s *Session) AdaptUplink() (float64, bool) {
	budget := s.sys.AP.UplinkBudget(s.node.AzimuthRad(), s.node.FSA, s.node.Distance(), s.node.OrientationDeg, adaptRefRate)
	return pickRate(budget.SNRdB())
}
