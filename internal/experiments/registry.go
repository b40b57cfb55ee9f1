package experiments

import (
	"fmt"
	"math"

	"repro/internal/baseline"
)

// Experiment is one entry of the evaluation: a regenerated table or figure
// of §9, or an ablation (abl-*) or extension (ext-*) study. Run holds the
// paper setting and, with quick, a reduced one for smoke runs.
type Experiment struct {
	ID, Desc string
	Run      func(seed int64, quick bool) Table
	// Claim is the paper claim this experiment is judged against, or nil.
	Claim *Claim
}

// Claim is a paper claim with its check: ok reports whether the measured
// result matches, and detail states the measured figures.
type Claim struct {
	ID, Statement string
	Check         func(seed int64, quick bool) (ok bool, detail string)
}

// reduced picks a count: full for the paper setting, fast under -quick.
func reduced(quick bool, full, fast int) int {
	if quick {
		return fast
	}
	return full
}

// failedNote is a claim detail's suffix naming its failed trials, empty
// when none failed.
func failedNote(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(", failed trials: %d", n)
}

// Registry lists every experiment with its settings, in the order
// milback-experiments runs them; the entries with a Claim, in this order,
// are the rows of milback-report's verdict table.
func Registry() []Experiment {
	fig13Orientations := []float64{-24, -20, -16, -12, -8, -4, 0, 4, 8, 12, 16, 20, 24}
	fig10 := func() Fig10Result { return Fig10FSAPattern(1) }
	fig13a := func(seed int64, quick bool) Fig13Result {
		return Fig13aNodeOrientation(fig13Orientations, reduced(quick, 25, 5), seed)
	}
	fig13b := func(seed int64, quick bool) Fig13Result {
		return Fig13bAPOrientation(fig13Orientations, reduced(quick, 25, 5), seed)
	}
	// 1–12 m, the x-range of the paper's plot.
	fig14 := func() Fig14Result { return Fig14Downlink([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) }
	return []Experiment{
		{ID: "fig10", Desc: "dual-port FSA beam pattern",
			Run: func(int64, bool) Table { return fig10().Summary() },
			Claim: &Claim{ID: "fig10-gain", Statement: "every FSA beam exceeds 10 dBi and the scan covers ~60°",
				Check: func(int64, bool) (bool, string) {
					minGain := math.Inf(1)
					lo, hi := math.Inf(1), math.Inf(-1)
					for _, s := range fig10().Series {
						minGain = math.Min(minGain, s.PeakGainDBi)
						lo = math.Min(lo, s.PeakAngleDeg)
						hi = math.Max(hi, s.PeakAngleDeg)
					}
					return minGain > 10 && hi-lo >= 55, fmt.Sprintf("min peak %.1f dBi, scan %.0f°", minGain, hi-lo)
				}}},
		{ID: "fig11", Desc: "OAQFM micro-benchmark",
			Run: func(seed int64, _ bool) Table { return Fig11OAQFM(seed).Summary() },
			Claim: &Claim{ID: "fig11-decode", Statement: "all four OAQFM symbols decode with clean per-port tone separation",
				Check: func(seed int64, _ bool) (bool, string) {
					r := Fig11OAQFM(seed)
					return r.AllDecoded(), fmt.Sprintf("decoded %v", r.Decoded)
				}}},
		{ID: "fig12a", Desc: "ranging accuracy vs distance",
			Run: func(seed int64, quick bool) Table {
				return Fig12aRanging([]float64{1, 2, 3, 4, 5, 6, 7, 8}, reduced(quick, 20, 5), seed).Summary()
			},
			Claim: &Claim{ID: "fig12a-ranging", Statement: "mean ranging error < 6 cm at 5 m and < 12 cm at 8 m",
				Check: func(seed int64, _ bool) (bool, string) {
					// Always 20 trials: only two distances, and a 5-trial mean is
					// too noisy to judge a centimeter-level claim.
					r := Fig12aRanging([]float64{5, 8}, 20, seed)
					e5, e8 := r.Rows[0].MeanErrM*100, r.Rows[1].MeanErrM*100
					return e5 < 6 && e8 < 12 && r.Failed() == 0,
						fmt.Sprintf("%.1f cm @5 m, %.1f cm @8 m", e5, e8) + failedNote(r.Failed())
				}}},
		{ID: "fig12b", Desc: "angle accuracy CDF",
			Run: func(seed int64, quick bool) Table {
				return Fig12bAngle([]float64{-30, -20, -10, 0, 10, 20, 30}, 3, reduced(quick, 20, 5), seed).Summary()
			},
			Claim: &Claim{ID: "fig12b-angle", Statement: "median angle error ~1.1°, 90th percentile ~2.5°",
				Check: func(seed int64, quick bool) (bool, string) {
					r := Fig12bAngle([]float64{-30, -15, 0, 15, 30}, 3, reduced(quick, 20, 5), seed)
					ok := r.MedianDeg > 0.4 && r.MedianDeg < 1.8 && r.P90Deg > 1.2 && r.P90Deg < 4
					return ok, fmt.Sprintf("median %.2f°, p90 %.2f°", r.MedianDeg, r.P90Deg)
				}}},
		{ID: "fig13a", Desc: "orientation sensing at the node",
			Run: func(seed int64, quick bool) Table { return fig13a(seed, quick).Summary() },
			Claim: &Claim{ID: "fig13a-node-orientation", Statement: "node-side orientation mean error always < 3°",
				Check: func(seed int64, quick bool) (bool, string) {
					r := fig13a(seed, quick)
					w := r.MaxMeanErr()
					return w < 3 && r.Failed() == 0, fmt.Sprintf("worst mean %.2f°", w) + failedNote(r.Failed())
				}}},
		{ID: "fig13b", Desc: "orientation sensing at the AP",
			Run: func(seed int64, quick bool) Table { return fig13b(seed, quick).Summary() },
			Claim: &Claim{ID: "fig13b-ap-orientation", Statement: "AP-side orientation < ~3° everywhere, elevated near −4° (mirror reflection)",
				Check: func(seed int64, quick bool) (bool, string) {
					r := fig13b(seed, quick)
					var atMirror, elsewhere float64
					for _, row := range r.Rows {
						if row.OrientationDeg == -4 {
							atMirror = row.MeanErrDeg
						} else if row.MeanErrDeg > elsewhere {
							elsewhere = row.MeanErrDeg
						}
					}
					ok := r.MaxMeanErr() < 3.3 && atMirror > elsewhere
					return ok, fmt.Sprintf("mirror window %.2f°, elsewhere max %.2f°", atMirror, elsewhere)
				}}},
		{ID: "fig14", Desc: "downlink SINR vs distance",
			Run: func(int64, bool) Table { return fig14().Summary() },
			Claim: &Claim{ID: "fig14-downlink", Statement: "downlink SINR ~25 dB near, > 12 dB at 10 m (BER < 1e-8)",
				Check: func(int64, bool) (bool, string) {
					var s2, s10 float64
					for _, row := range fig14().Rows {
						if row.DistanceM == 2 {
							s2 = row.SINRdB
						}
						if row.DistanceM == 10 {
							s10 = row.SINRdB
						}
					}
					return s2 > 20 && s2 < 30 && s10 > 12, fmt.Sprintf("%.1f dB @2 m, %.1f dB @10 m", s2, s10)
				}}},
		{ID: "fig15a", Desc: "uplink SNR/BER at 10 Mbps",
			Run: func(seed int64, quick bool) Table {
				return Fig15Uplink(10e6, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, reduced(quick, 40000, 4000), seed).Summary()
			},
			Claim: &Claim{ID: "fig15-uplink", Statement: "uplink usable to ~8 m at 10 Mbps; 40 Mbps runs exactly 6 dB lower",
				Check: func(seed int64, _ bool) (bool, string) {
					a := Fig15Uplink(10e6, []float64{4, 8}, 0, seed)
					b := Fig15Uplink(40e6, []float64{4, 8}, 0, seed)
					delta := a.Rows[0].SNRdB - b.Rows[0].SNRdB
					ok := a.Rows[1].BERModel < 1e-2 && math.Abs(delta-6.02) < 0.1
					return ok, fmt.Sprintf("BER %.1e @8 m/10 Mbps, rate delta %.2f dB", a.Rows[1].BERModel, delta)
				}}},
		{ID: "fig15b", Desc: "uplink SNR/BER at 40 Mbps",
			Run: func(seed int64, quick bool) Table {
				return Fig15Uplink(40e6, []float64{1, 2, 3, 4, 5, 6, 7, 8}, reduced(quick, 40000, 4000), seed).Summary()
			}},
		{ID: "table1", Desc: "capability comparison vs prior systems",
			Run: func(int64, bool) Table { return Table1Comparison().Summary() },
			Claim: &Claim{ID: "table1-capabilities", Statement: "MilBack is the only system with all four capabilities",
				Check: func(int64, bool) (bool, string) {
					full := baseline.OnlyFullFeatured(Table1Comparison().Systems)
					return len(full) == 1 && full[0].Name == "MilBack", fmt.Sprintf("%d full-featured system(s)", len(full))
				}}},
		{ID: "power", Desc: "node power consumption and energy per bit (§9.6)",
			Run: func(int64, bool) Table { return Sec96Power().Summary() },
			Claim: &Claim{ID: "sec96-power", Statement: "18 mW localization/downlink, 32 mW uplink; 0.5/0.8 nJ/bit",
				Check: func(int64, bool) (bool, string) {
					r := Sec96Power()
					down, up := r.Rows[1], r.Rows[2]
					ok := math.Abs(down.PowerMW-18) < 0.1 && math.Abs(up.PowerMW-32) < 0.1 &&
						math.Abs(down.EnergyPerBit-0.5e-9) < 0.02e-9 && math.Abs(up.EnergyPerBit-0.8e-9) < 0.02e-9
					return ok, fmt.Sprintf("%.1f/%.1f mW, %.2f/%.2f nJ/bit",
						down.PowerMW, up.PowerMW, down.EnergyPerBit*1e9, up.EnergyPerBit*1e9)
				}}},
		{ID: "abl-subtraction", Desc: "ablation: background subtraction on/off",
			Run: func(seed int64, quick bool) Table {
				return AblationBackgroundSubtraction(reduced(quick, 20, 5), seed).Summary()
			}},
		{ID: "abl-taper", Desc: "ablation: aperture taper vs tone isolation",
			Run: func(int64, bool) Table {
				return AblationAmplitudeTaper([]float64{-25, -20, -15, -10, -5, 5, 10, 15, 20, 25}).Summary()
			}},
		{ID: "abl-mirror", Desc: "ablation: ground-plane mirror reflection (Fig 13b bump)",
			Run: func(seed int64, quick bool) Table {
				return AblationMirrorReflection([]float64{-12, -8, -6, -4, -2, 0, 4, 12}, reduced(quick, 15, 5), seed).Summary()
			}},
		{ID: "ext-dense", Desc: "extension: dense OAQFM rate-vs-range (§9.4)",
			Run: func(seed int64, quick bool) Table {
				return ExtDenseOAQFM([]int{2, 4, 8}, []float64{2, 4, 6, 8, 10}, reduced(quick, 2000, 300), seed).Summary()
			}},
		{ID: "ext-scaling", Desc: "extension: FSA size vs range (§11)",
			Run: func(int64, bool) Table { return ExtFSAScaling([]int{7, 10, 14, 20, 28, 40}).Summary() }},
		{ID: "ext-doppler", Desc: "extension: radial-velocity sensing from the localization burst",
			Run: func(seed int64, quick bool) Table {
				return ExtDoppler([]float64{-5, -1, -0.3, 0.3, 1, 5, 20}, []int{8, 32, 128}, reduced(quick, 10, 3), seed).Summary()
			}},
		{ID: "ext-mobility", Desc: "extension: localization RMSE vs trajectory speed (0.5-10 m/s)",
			Run: func(seed int64, quick bool) Table {
				// Quick runs one trial over half the route: 180 fixes in place
				// of 3,600, the sweep's largest share otherwise.
				routeS := 3.0
				if quick {
					routeS = 1.5
				}
				return ExtMobilityRMSE([]float64{0.5, 1, 2, 4, 7, 10}, 20, routeS, reduced(quick, 10, 1), seed).Summary()
			}},
		{ID: "ext-fading", Desc: "extension: Rician fading outage on the uplink",
			Run: func(seed int64, quick bool) Table {
				return ExtFadingOutage([]float64{3, 8, 15}, []float64{2, 4, 6, 8, 10}, reduced(quick, 20000, 2000), seed).Summary()
			}},
		{ID: "ext-goodput", Desc: "extension: protocol overhead, goodput vs payload size",
			Run: func(int64, bool) Table {
				// From a sensor reading to a frame of VR scene data.
				return ExtGoodput([]int{8, 64, 256, 1024, 4096, 16384, 65535}).Summary()
			}},
	}
}
