package experiments

import (
	"fmt"
	"math"

	"repro/internal/ber"
	"repro/internal/fsa"
	"repro/internal/node"
	"repro/internal/rfsim"
)

// Fig14Row is one distance point of the downlink experiment.
type Fig14Row struct {
	DistanceM float64
	SINRdB    float64
	BER       float64
}

// Fig14Result is the downlink SINR-vs-distance experiment (§9.4).
type Fig14Result struct {
	Rows []Fig14Row
	// ThresholdSINRdB is the SINR needed for BER 1e-8 (the paper's dashed
	// line at 12 dB).
	ThresholdSINRdB float64
}

// Fig14Downlink reproduces Fig 14: the node at each distance with a fixed
// off-normal orientation, tone pair chosen for that orientation, SINR
// measured at the MCU input for an 18 Msym/s (36 Mbps) downlink, and BER
// from the calibrated non-coherent OOK model.
func Fig14Downlink(distances []float64) Fig14Result {
	const (
		orient     = -10.0
		symbolRate = 18e6 // 36 Mbps at 2 bits/symbol
		txPowerW   = 0.5
		apGainDBi  = 20.0
	)
	var out Fig14Result
	out.ThresholdSINRdB = ber.SNRdBForBER(1e-8, ber.DefaultProcessingGainDB)
	for _, d := range distances {
		if d <= 0 {
			panic(fmt.Sprintf("experiments: non-positive distance %g", d))
		}
		n := node.MustNew(node.DefaultConfig(), rfsim.Point{X: d}, orient)
		n.SetPorts(fsa.Absorptive, fsa.Absorptive)
		tones := n.TonePairForOrientation(orient)
		sinr := n.DownlinkSINR(fsa.PortA, tones, txPowerW, apGainDBi, symbolRate)
		sinrDB := 10 * log10(sinr)
		out.Rows = append(out.Rows, Fig14Row{
			DistanceM: d,
			SINRdB:    sinrDB,
			BER:       ber.FromSNRdB(sinrDB, ber.DefaultProcessingGainDB),
		})
	}
	return out
}

// Summary renders the SINR/BER table.
func (r Fig14Result) Summary() Table {
	t := Table{
		Title:   "Fig 14 — Downlink SINR vs distance (36 Mbps, 1 GHz detector bandwidth)",
		Columns: []string{"distance (m)", "SINR (dB)", "BER (model)"},
		Notes: []string{
			fmt.Sprintf("BER 1e-8 threshold at %.1f dB SINR (paper: 12 dB)", r.ThresholdSINRdB),
			"paper: ~25 dB near, > 12 dB even at 10 m (one-way 20 log d slope)",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{f1(row.DistanceM), f1(row.SINRdB), sci(row.BER)})
	}
	return t
}

func log10(x float64) float64 {
	if x <= 0 {
		return -300
	}
	return math.Log10(x)
}
