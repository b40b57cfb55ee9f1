package ber

import (
	"fmt"
	"math"
)

// DefaultProcessingGainDB is the calibrated per-symbol integration gain of
// MilBack's receivers (DESIGN.md §4.6).
const DefaultProcessingGainDB = 6.5

// NonCoherentOOK returns the bit error probability of envelope-detected OOK
// at linear post-detection SNR gamma: ½·exp(−γ/4).
func NonCoherentOOK(gamma float64) float64 {
	if gamma < 0 {
		panic(fmt.Sprintf("ber: negative SNR %g", gamma))
	}
	p := 0.5 * math.Exp(-gamma/4)
	if p > 0.5 {
		p = 0.5
	}
	return p
}

// FromSNRdB maps a measured channel SNR/SINR (dB) to OAQFM bit error rate
// using the non-coherent model with the given processing gain (dB).
func FromSNRdB(snrDB, processingGainDB float64) float64 {
	gamma := math.Pow(10, (snrDB+processingGainDB)/10)
	return NonCoherentOOK(gamma)
}

// SNRdBForBER inverts FromSNRdB: the channel SNR (dB) needed to reach a
// target bit error rate under the given processing gain.
func SNRdBForBER(target, processingGainDB float64) float64 {
	if target <= 0 || target >= 0.5 {
		panic(fmt.Sprintf("ber: target BER %g outside (0, 0.5)", target))
	}
	gamma := -4 * math.Log(2*target)
	return 10*math.Log10(gamma) - processingGainDB
}

// Measurement is a Monte-Carlo BER measurement.
type Measurement struct {
	Bits   int
	Errors int
}

// BER returns the measured error rate (0 if no bits were counted).
func (m Measurement) BER() float64 {
	if m.Bits == 0 {
		return 0
	}
	return float64(m.Errors) / float64(m.Bits)
}

// Add merges another measurement.
func (m *Measurement) Add(other Measurement) {
	m.Bits += other.Bits
	m.Errors += other.Errors
}

// MonteCarlo repeatedly invokes trial (which returns bits sent and errors
// observed) until either minErrors errors have been accumulated or maxBits
// bits have been simulated. It is the harness behind the measured points of
// Fig 15; very low BERs (< ~1e-7) are reported from the closed form instead
// because 1e-10 is out of Monte-Carlo reach.
func MonteCarlo(trial func(seed int64) (bits, errors int), minErrors, maxBits int) Measurement {
	if minErrors < 1 || maxBits < 1 {
		panic(fmt.Sprintf("ber: invalid Monte-Carlo bounds %d, %d", minErrors, maxBits))
	}
	var m Measurement
	for seed := int64(1); m.Errors < minErrors && m.Bits < maxBits; seed++ {
		b, e := trial(seed)
		if b <= 0 {
			panic("ber: trial reported no bits")
		}
		m.Bits += b
		m.Errors += e
	}
	return m
}
