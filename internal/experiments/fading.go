package experiments

import (
	"fmt"
	"sort"

	"repro/internal/ber"
	"repro/internal/fsa"
	"repro/internal/rfsim"
)

// ExtFadingRow is one (K, distance) cell of the fading-outage study.
type ExtFadingRow struct {
	KdB       float64
	DistanceM float64
	MeanSNRdB float64
	// Outage is the probability the faded link misses BER 1e-6.
	Outage float64
}

// ExtFadingResult is the small-scale-fading robustness study: the paper
// evaluates in a static lab; this extension asks how much Rician fading an
// actual deployment adds to the link budget.
type ExtFadingResult struct {
	Rows []ExtFadingRow
	// RequiredSNRdB is the BER-1e-6 threshold.
	RequiredSNRdB float64
	// Margins holds the 1%-outage fade margin per K.
	Margins map[float64]float64
}

// ExtFadingOutage computes, for each Rician K and distance, the probability
// that the faded 10 Mbps uplink misses BER 1e-6, plus the 1%-outage fade
// margin per K.
func ExtFadingOutage(ks []float64, distances []float64, draws int, seed int64) ExtFadingResult {
	if draws < 100 {
		panic(fmt.Sprintf("experiments: need >= 100 draws, got %d", draws))
	}
	a := defaultSystem().AP
	f := fsa.Default()
	need := ber.SNRdBForBER(1e-6, ber.DefaultProcessingGainDB)
	out := ExtFadingResult{RequiredSNRdB: need, Margins: map[float64]float64{}}
	for ki, k := range ks {
		fading := rfsim.Fading{KdB: k}
		out.Margins[k] = fading.FadeMarginDB(0.01, 20000, rfsim.NewNoiseSource(seed+int64(ki)))
		for di, d := range distances {
			snr := a.UplinkBudget(0, f, d, -10, 10e6).SNRdB()
			ns := rfsim.NewNoiseSource(seed + int64(ki*100+di))
			out.Rows = append(out.Rows, ExtFadingRow{
				KdB:       k,
				DistanceM: d,
				MeanSNRdB: snr,
				Outage:    fading.OutageProbability(snr, need, draws, ns),
			})
		}
	}
	return out
}

// Summary renders the outage table.
func (r ExtFadingResult) Summary() Table {
	t := Table{
		Title:   "Extension — Rician fading outage on the 10 Mbps uplink",
		Columns: []string{"K (dB)", "distance (m)", "mean SNR (dB)", "P(BER > 1e-6)"},
		Notes: []string{
			fmt.Sprintf("BER 1e-6 needs %.1f dB; the paper's static-lab curves are the K→∞ column", r.RequiredSNRdB),
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.KdB), f1(row.DistanceM), f1(row.MeanSNRdB), sci(row.Outage),
		})
	}
	// Walk K in ascending order: map iteration order would shuffle the
	// notes from run to run.
	ks := make([]float64, 0, len(r.Margins))
	for k := range r.Margins {
		ks = append(ks, k)
	}
	sort.Float64s(ks)
	for _, k := range ks {
		t.Notes = append(t.Notes, fmt.Sprintf("K=%.0f dB: 1%%-outage fade margin %.1f dB", k, r.Margins[k]))
	}
	return t
}
