package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/ber"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/rfsim"
)

// Fig15Row is one distance point of the uplink experiment.
type Fig15Row struct {
	DistanceM float64
	SNRdB     float64
	// BERModel is the closed-form BER at this SNR.
	BERModel float64
	// BERMeasured is the Monte-Carlo BER through the full simulated chain
	// (−1 when the expected BER is below Monte-Carlo reach and the
	// simulation was skipped).
	BERMeasured float64
	// MeasuredBits is the number of Monte-Carlo bits simulated.
	MeasuredBits int
}

// Fig15Result is the uplink SNR/BER-vs-distance experiment (§9.5).
type Fig15Result struct {
	BitRate float64
	Rows    []Fig15Row
}

// Fig15Uplink reproduces Fig 15 at the given bit rate (10 Mbps for 15a,
// 40 Mbps for 15b): closed-form SNR from the link budget plus, where
// feasible, a Monte-Carlo BER through the full synthesize→demodulate chain.
// maxMCBits caps the Monte-Carlo work per distance (0 disables it).
func Fig15Uplink(bitRate float64, distances []float64, maxMCBits int, seed int64) Fig15Result {
	if bitRate <= 0 {
		panic(fmt.Sprintf("experiments: bit rate must be positive, got %g", bitRate))
	}
	sys := defaultSystem()
	out := Fig15Result{BitRate: bitRate}
	const orient = -10.0
	for _, d := range distances {
		n, err := sys.AddNode(rfsim.Point{X: d}, orient)
		if err != nil {
			panic(err)
		}
		budget := sys.AP.UplinkBudget(n.FSA, d, orient, bitRate)
		snrDB := budget.SNRdB()
		row := Fig15Row{
			DistanceM:   d,
			SNRdB:       snrDB,
			BERModel:    ber.FromSNRdB(snrDB, ber.DefaultProcessingGainDB),
			BERMeasured: -1,
		}
		// Monte-Carlo only where errors are reachable with the bit budget.
		if maxMCBits > 0 && row.BERModel > 3.0/float64(maxMCBits) {
			m := ber.MonteCarlo(func(s int64) (int, int) {
				return uplinkTrial(sys, n, orient, bitRate, seed+s)
			}, 20, maxMCBits)
			row.BERMeasured = m.BER()
			row.MeasuredBits = m.Bits
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// uplinkTrial runs one random payload through the full uplink chain and
// returns (bits sent, bit errors).
func uplinkTrial(sys *core.System, n *node.Node, orient, bitRate float64, seed int64) (int, int) {
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, 128)
	rng.Read(payload)
	res, err := sys.Uplink(n, orient, payload, bitRate, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: uplink trial: %v", err))
	}
	return res.BitsSent, res.BitErrors
}

// Summary renders the SNR/BER table.
func (r Fig15Result) Summary() Table {
	t := Table{
		Title: fmt.Sprintf("Fig 15 — Uplink SNR vs distance (%.0f Mbps)", r.BitRate/1e6),
		Columns: []string{
			"distance (m)", "SNR (dB)", "BER (model)", "BER (Monte-Carlo)", "MC bits",
		},
		Notes: []string{
			"paper 15a (10 Mbps): very low BER to 8 m (call-outs 1e-10, 2e-8 @6 m, 2e-4 @8 m)",
			"paper 15b (40 Mbps): +6 dB noise, call-outs 8e-4 @4 m, 3e-3 @6 m",
			"two-way 40 log d slope; downlink (Fig 14) outranges uplink",
		},
	}
	for _, row := range r.Rows {
		mc := "-"
		bits := "-"
		if row.BERMeasured >= 0 {
			mc = sci(row.BERMeasured)
			bits = fmt.Sprintf("%d", row.MeasuredBits)
		}
		t.Rows = append(t.Rows, []string{
			f1(row.DistanceM), f1(row.SNRdB), sci(row.BERModel), mc, bits,
		})
	}
	return t
}
