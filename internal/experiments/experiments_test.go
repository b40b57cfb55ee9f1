package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fsa"
	"repro/internal/rfsim"
)

func TestFig10FSAPattern(t *testing.T) {
	r := Fig10FSAPattern(0.5)
	// 2 ports x 7 frequencies.
	if len(r.Series) != 14 {
		t.Fatalf("series = %d, want 14", len(r.Series))
	}
	var prevA float64 = math.Inf(-1)
	var prevB float64 = math.Inf(1)
	for _, s := range r.Series {
		// Every beam exceeds 10 dBi (paper: "more than 10dB gain").
		if s.PeakGainDBi < 10 {
			t.Errorf("port %v f=%g: peak %g dBi", s.Port, s.FreqHz, s.PeakGainDBi)
		}
		if len(s.AngleDeg) != len(s.GainDBi) {
			t.Fatal("trace length mismatch")
		}
		// Port A sweeps left→right with frequency, port B right→left.
		if s.Port == fsa.PortA {
			if s.PeakAngleDeg <= prevA {
				t.Errorf("port A peaks not monotone: %g after %g", s.PeakAngleDeg, prevA)
			}
			prevA = s.PeakAngleDeg
		} else {
			if s.PeakAngleDeg >= prevB {
				t.Errorf("port B peaks not monotone-decreasing: %g after %g", s.PeakAngleDeg, prevB)
			}
			prevB = s.PeakAngleDeg
		}
	}
	// 60° coverage.
	if span := prevA - r.Series[0].PeakAngleDeg; span < 55 {
		t.Errorf("port A scan span = %g°, want ~60", span)
	}
	tb := r.Summary()
	if len(tb.Rows) != 14 || !strings.Contains(tb.String(), "Fig 10") {
		t.Error("summary malformed")
	}
	defer func() {
		if recover() == nil {
			t.Error("zero step should panic")
		}
	}()
	Fig10FSAPattern(0)
}

func TestFig11OAQFM(t *testing.T) {
	r := Fig11OAQFM(7)
	if !r.AllDecoded() {
		t.Fatalf("micro-benchmark symbols misdecoded: %v -> %v", r.Symbols, r.Decoded)
	}
	// The paper's tone pair: 27.5 and 28.5 GHz.
	if math.Abs(r.Tones.FA-27.5e9) > 1 || math.Abs(r.Tones.FB-28.5e9) > 1 {
		t.Errorf("tones = %g/%g", r.Tones.FA, r.Tones.FB)
	}
	// Symbol 00 is near zero at both ports; 11 is high at both; 01/10 are
	// one-sided.
	if r.VoltsA[0] > 0.02 || r.VoltsB[0] > 0.02 {
		t.Errorf("symbol 00 readings = %g/%g, want ~0", r.VoltsA[0], r.VoltsB[0])
	}
	if r.VoltsA[3] < 0.1 || r.VoltsB[3] < 0.1 {
		t.Errorf("symbol 11 readings = %g/%g, want strong", r.VoltsA[3], r.VoltsB[3])
	}
	// Per-port tone separation: the wanted tone dominates the leak by >5x.
	if r.VoltsB[1] < 5*r.VoltsA[1] {
		t.Errorf("symbol 01: port B %g should dominate port A %g", r.VoltsB[1], r.VoltsA[1])
	}
	if r.VoltsA[2] < 5*r.VoltsB[2] {
		t.Errorf("symbol 10: port A %g should dominate port B %g", r.VoltsA[2], r.VoltsB[2])
	}
	if !strings.Contains(r.Summary().String(), "OAQFM") {
		t.Error("summary malformed")
	}
}

func TestFig12aRangingMatchesPaper(t *testing.T) {
	r := Fig12aRanging([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 20, 11)
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Paper: mean < 5 cm at 5 m, < 12 cm at 8 m.
	for _, row := range r.Rows {
		switch row.DistanceM {
		case 5:
			if row.MeanErrM > 0.06 {
				t.Errorf("mean error at 5 m = %.1f cm, want < 6", row.MeanErrM*100)
			}
		case 8:
			if row.MeanErrM > 0.12 {
				t.Errorf("mean error at 8 m = %.1f cm, want < 12", row.MeanErrM*100)
			}
		}
	}
	// Errors grow with distance overall (far vs near).
	if r.Rows[7].MeanErrM <= r.Rows[0].MeanErrM {
		t.Errorf("error at 8 m (%.3f) should exceed 1 m (%.3f)", r.Rows[7].MeanErrM, r.Rows[0].MeanErrM)
	}
	if !strings.Contains(r.Summary().String(), "Ranging") {
		t.Error("summary malformed")
	}
}

func TestFig12bAngleMatchesPaper(t *testing.T) {
	r := Fig12bAngle([]float64{-30, -20, -10, 0, 10, 20, 30}, 3, 20, 13)
	// Paper: median 1.1°, 90th pct 2.5°.
	if r.MedianDeg < 0.5 || r.MedianDeg > 1.8 {
		t.Errorf("median angle error = %.2f°, want ~1.1", r.MedianDeg)
	}
	if r.P90Deg < 1.5 || r.P90Deg > 4 {
		t.Errorf("90th pct angle error = %.2f°, want ~2.5", r.P90Deg)
	}
	if len(r.CDF) != len(r.ErrorsDeg) {
		t.Error("CDF length mismatch")
	}
	// CDF is monotone in P.
	for i := 1; i < len(r.CDF); i++ {
		if r.CDF[i].P < r.CDF[i-1].P {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestFig13aNodeOrientationMatchesPaper(t *testing.T) {
	r := Fig13aNodeOrientation([]float64{-20, -10, 0, 10, 20}, 25, 17)
	if r.Side != "node" {
		t.Error("side")
	}
	// Paper: mean error always < 3°.
	if worst := r.MaxMeanErr(); worst > 3 {
		t.Errorf("worst mean error = %.2f°, want < 3 (Fig 13a)", worst)
	}
	if !strings.Contains(r.Summary().String(), "node") {
		t.Error("summary malformed")
	}
}

// A trial whose estimator fails is counted, kept out of the mean and
// printed; it does not crash the sweep. At 24° the node-side estimator
// finds no plausible peak separation on trial seed 100, so a 5-trial sweep
// from seed 98 meets it at its third trial.
func TestFig13aCountsFailedTrial(t *testing.T) {
	sys := defaultSystem()
	n, err := sys.AddNode(rfsim.Point{X: 2}, 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SenseOrientationAtNode(n, 100); err == nil {
		t.Fatal("trial seed 100 at 24° no longer fails; pick a failing trial for this test")
	}
	r := Fig13aNodeOrientation([]float64{24}, 5, 98)
	row := r.Rows[0]
	if row.Failed != 1 || r.Failed() != 1 || row.Trials != 5 {
		t.Fatalf("row = %+v, want 1 failed trial of 5", row)
	}
	if math.IsNaN(row.MeanErrDeg) || row.MeanErrDeg > 3 {
		t.Errorf("mean over the 4 good trials = %.2f°, want a finite value < 3°", row.MeanErrDeg)
	}
	sum := r.Summary()
	if got := sum.Columns[len(sum.Columns)-1]; got != "failed" {
		t.Fatalf("last column = %q, want failed", got)
	}
	if got := sum.Rows[0][len(sum.Rows[0])-1]; got != "1" {
		t.Errorf("failed column reads %q, want 1", got)
	}
	if got := failedNote(r.Failed()); got != ", failed trials: 1" {
		t.Errorf("claim detail suffix = %q", got)
	}
}

func TestFig13bAPOrientationMatchesPaper(t *testing.T) {
	r := Fig13bAPOrientation([]float64{-16, -8, -4, 0, 8, 16}, 25, 19)
	if r.Side != "AP" {
		t.Error("side")
	}
	// Paper: < 3° mean everywhere, elevated near -4°.
	if worst := r.MaxMeanErr(); worst > 3.2 {
		t.Errorf("worst mean error = %.2f°, want <= ~3 (Fig 13b)", worst)
	}
	var atMirror, awayMax float64
	for _, row := range r.Rows {
		if row.OrientationDeg == -4 {
			atMirror = row.MeanErrDeg
		}
		if row.OrientationDeg >= 8 && row.MeanErrDeg > awayMax {
			awayMax = row.MeanErrDeg
		}
	}
	if atMirror <= awayMax {
		t.Errorf("mirror-window error %.2f° should exceed far-field %.2f° (Fig 13b bump)", atMirror, awayMax)
	}
}

func TestFig14DownlinkMatchesPaper(t *testing.T) {
	r := Fig14Downlink([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Monotone decreasing SINR.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].SINRdB >= r.Rows[i-1].SINRdB {
			t.Errorf("SINR not decreasing at %g m", r.Rows[i].DistanceM)
		}
	}
	// Paper: > 12 dB at 10 m; ~25 dB near.
	for _, row := range r.Rows {
		if row.DistanceM == 10 && row.SINRdB < 12 {
			t.Errorf("SINR at 10 m = %.1f dB, want > 12", row.SINRdB)
		}
		if row.DistanceM == 2 && (row.SINRdB < 20 || row.SINRdB > 30) {
			t.Errorf("SINR at 2 m = %.1f dB, want ~25", row.SINRdB)
		}
		if row.DistanceM == 10 && row.BER > 1e-8 {
			t.Errorf("BER at 10 m = %g, want <= 1e-8 (paper)", row.BER)
		}
	}
	// Threshold at 12 dB.
	if math.Abs(r.ThresholdSINRdB-12) > 1 {
		t.Errorf("1e-8 threshold = %.1f dB, want ~12", r.ThresholdSINRdB)
	}
}

func TestFig15UplinkMatchesPaper(t *testing.T) {
	a := Fig15Uplink(10e6, []float64{2, 4, 6, 8}, 0, 23)
	b := Fig15Uplink(40e6, []float64{2, 4, 6, 8}, 0, 23)
	// 40 Mbps runs ~6 dB below 10 Mbps at every distance.
	for i := range a.Rows {
		diff := a.Rows[i].SNRdB - b.Rows[i].SNRdB
		if math.Abs(diff-6.02) > 0.1 {
			t.Errorf("d=%g: rate SNR delta = %.2f dB, want 6", a.Rows[i].DistanceM, diff)
		}
	}
	// Two-way slope: doubling distance costs ~12 dB.
	if drop := a.Rows[0].SNRdB - a.Rows[1].SNRdB; math.Abs(drop-12.04) > 0.2 {
		t.Errorf("2→4 m drop = %.2f dB, want 12", drop)
	}
	// BER ordering: 40 Mbps always worse.
	for i := range a.Rows {
		if b.Rows[i].BERModel < a.Rows[i].BERModel {
			t.Errorf("d=%g: 40 Mbps BER better than 10 Mbps", a.Rows[i].DistanceM)
		}
	}
	// Usable link at 8 m for 10 Mbps (paper's 8 m range claim), but not a
	// clean one at 8 m for 40 Mbps (paper stops at ~6 m for low BER).
	if a.Rows[3].BERModel > 1e-2 {
		t.Errorf("10 Mbps at 8 m BER = %g, want usable", a.Rows[3].BERModel)
	}
	if b.Rows[3].BERModel < 1e-3 {
		t.Errorf("40 Mbps at 8 m BER = %g, should be degraded", b.Rows[3].BERModel)
	}
}

func TestFig15MonteCarloRuns(t *testing.T) {
	r := Fig15Uplink(40e6, []float64{8}, 6000, 31)
	row := r.Rows[0]
	if row.BERMeasured < 0 {
		t.Fatal("Monte-Carlo should have run at 8 m / 40 Mbps")
	}
	if row.MeasuredBits == 0 {
		t.Fatal("no bits measured")
	}
	// Measured and model within a couple orders of magnitude (the measured
	// chain is pilot-aided coherent, slightly better than the non-coherent
	// model).
	if row.BERMeasured > row.BERModel*10 {
		t.Errorf("measured %g far above model %g", row.BERMeasured, row.BERModel)
	}
}

func TestTable1AndPower(t *testing.T) {
	tb := Table1Comparison().Summary()
	s := tb.String()
	for _, name := range []string{"mmTag", "Millimetro", "OmniScatter", "MilBack"} {
		if !strings.Contains(s, name) {
			t.Errorf("Table 1 missing %s", name)
		}
	}
	// MilBack row: all Yes.
	var milbackRow []string
	for _, row := range tb.Rows {
		if row[0] == "MilBack" {
			milbackRow = row
		}
	}
	for i := 1; i < 5; i++ {
		if milbackRow[i] != "Yes" {
			t.Errorf("MilBack column %d = %s", i, milbackRow[i])
		}
	}

	p := Sec96Power()
	if math.Abs(p.Rows[0].PowerMW-18) > 0.1 {
		t.Errorf("localization power = %g mW, want 18", p.Rows[0].PowerMW)
	}
	if math.Abs(p.Rows[2].PowerMW-32) > 0.1 {
		t.Errorf("uplink power = %g mW, want 32", p.Rows[2].PowerMW)
	}
	if math.Abs(p.Rows[1].EnergyPerBit-0.5e-9) > 0.02e-9 {
		t.Errorf("downlink energy = %g, want 0.5 nJ/bit", p.Rows[1].EnergyPerBit)
	}
	if math.Abs(p.Rows[2].EnergyPerBit-0.8e-9) > 0.02e-9 {
		t.Errorf("uplink energy = %g, want 0.8 nJ/bit", p.Rows[2].EnergyPerBit)
	}
	if !strings.Contains(p.Summary().String(), "mmTag") {
		t.Error("power summary should reference mmTag")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:   "T",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"xxxxx", "y"}},
		Notes:   []string{"n1"},
	}
	s := tb.String()
	for _, want := range []string{"== T ==", "xxxxx", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{
		Title:   "T",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4,5"}},
		Notes:   []string{"n"},
	}
	got := tb.CSV()
	want := "a,b\n1,2\n3,\"4,5\"\n# n\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
