// Command milback-report runs the full reproduction suite and emits a
// markdown verdict report: every §9 result regenerated, checked against the
// paper's claims, and marked MATCH / SHAPE-MATCH / MISS. This is the
// one-command artifact-evaluation entry point:
//
//	go run ./cmd/milback-report > REPORT.md
//
// Flags:
//
//	-seed N   base random seed (default 1)
//	-quick    reduced trial counts
//
// With -trace FILE the command instead summarizes a pipeline-stage trace
// written by milback-sim -trace (or milback.Cluster.WriteTrace): a markdown
// table of span counts, durations and per-stage parallel efficiency (summed
// worker-busy time over wall time, for stages that fanned out), no
// experiments run.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/experiments"
	"repro/internal/obs"
)

type claim struct {
	id, statement string
	check         func(seed int64, quick bool) (bool, string)
}

func trials(quick bool, full int) int {
	if quick {
		return 5
	}
	return full
}

func claims() []claim {
	return []claim{
		{"fig10-gain", "every FSA beam exceeds 10 dBi and the scan covers ~60°",
			func(seed int64, quick bool) (bool, string) {
				r := experiments.Fig10FSAPattern(1)
				minGain := math.Inf(1)
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, s := range r.Series {
					minGain = math.Min(minGain, s.PeakGainDBi)
					lo = math.Min(lo, s.PeakAngleDeg)
					hi = math.Max(hi, s.PeakAngleDeg)
				}
				ok := minGain > 10 && hi-lo >= 55
				return ok, fmt.Sprintf("min peak %.1f dBi, scan %.0f°", minGain, hi-lo)
			}},
		{"fig11-decode", "all four OAQFM symbols decode with clean per-port tone separation",
			func(seed int64, quick bool) (bool, string) {
				r := experiments.Fig11OAQFM(seed)
				return r.AllDecoded(), fmt.Sprintf("decoded %v", r.Decoded)
			}},
		{"fig12a-ranging", "mean ranging error < 6 cm at 5 m and < 12 cm at 8 m",
			func(seed int64, quick bool) (bool, string) {
				// Always 20 trials: only two distances, and a 5-trial mean is
				// too noisy to judge a centimeter-level claim.
				r := experiments.Fig12aRanging([]float64{5, 8}, 20, seed)
				e5, e8 := r.Rows[0].MeanErrM*100, r.Rows[1].MeanErrM*100
				return e5 < 6 && e8 < 12, fmt.Sprintf("%.1f cm @5 m, %.1f cm @8 m", e5, e8)
			}},
		{"fig12b-angle", "median angle error ~1.1°, 90th percentile ~2.5°",
			func(seed int64, quick bool) (bool, string) {
				r := experiments.Fig12bAngle([]float64{-30, -15, 0, 15, 30}, 3, trials(quick, 20), seed)
				ok := r.MedianDeg > 0.4 && r.MedianDeg < 1.8 && r.P90Deg > 1.2 && r.P90Deg < 4
				return ok, fmt.Sprintf("median %.2f°, p90 %.2f°", r.MedianDeg, r.P90Deg)
			}},
		{"fig13a-node-orientation", "node-side orientation mean error always < 3°",
			func(seed int64, quick bool) (bool, string) {
				r := experiments.Fig13aNodeOrientation(experiments.DefaultFig13Orientations(), trials(quick, 25), seed)
				w := r.MaxMeanErr()
				return w < 3, fmt.Sprintf("worst mean %.2f°", w)
			}},
		{"fig13b-ap-orientation", "AP-side orientation < ~3° everywhere, elevated near −4° (mirror reflection)",
			func(seed int64, quick bool) (bool, string) {
				r := experiments.Fig13bAPOrientation(experiments.DefaultFig13Orientations(), trials(quick, 25), seed)
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
			}},
		{"fig14-downlink", "downlink SINR ~25 dB near, > 12 dB at 10 m (BER < 1e-8)",
			func(seed int64, quick bool) (bool, string) {
				r := experiments.DefaultFig14Downlink()
				var s2, s10 float64
				for _, row := range r.Rows {
					if row.DistanceM == 2 {
						s2 = row.SINRdB
					}
					if row.DistanceM == 10 {
						s10 = row.SINRdB
					}
				}
				return s2 > 20 && s2 < 30 && s10 > 12, fmt.Sprintf("%.1f dB @2 m, %.1f dB @10 m", s2, s10)
			}},
		{"fig15-uplink", "uplink usable to ~8 m at 10 Mbps; 40 Mbps runs exactly 6 dB lower",
			func(seed int64, quick bool) (bool, string) {
				a := experiments.Fig15Uplink(10e6, []float64{4, 8}, 0, seed)
				b := experiments.Fig15Uplink(40e6, []float64{4, 8}, 0, seed)
				delta := a.Rows[0].SNRdB - b.Rows[0].SNRdB
				ok := a.Rows[1].BERModel < 1e-2 && math.Abs(delta-6.02) < 0.1
				return ok, fmt.Sprintf("BER %.1e @8 m/10 Mbps, rate delta %.2f dB", a.Rows[1].BERModel, delta)
			}},
		{"table1-capabilities", "MilBack is the only system with all four capabilities",
			func(seed int64, quick bool) (bool, string) {
				full := baseline.OnlyFullFeatured(baseline.Table1())
				ok := len(full) == 1 && full[0].Name == "MilBack"
				return ok, fmt.Sprintf("%d full-featured system(s)", len(full))
			}},
		{"sec96-power", "18 mW localization/downlink, 32 mW uplink; 0.5/0.8 nJ/bit",
			func(seed int64, quick bool) (bool, string) {
				r := experiments.Sec96Power()
				down, up := r.Rows[1], r.Rows[2]
				ok := math.Abs(down.PowerMW-18) < 0.1 && math.Abs(up.PowerMW-32) < 0.1 &&
					math.Abs(down.EnergyPerBit-0.5e-9) < 0.02e-9 && math.Abs(up.EnergyPerBit-0.8e-9) < 0.02e-9
				return ok, fmt.Sprintf("%.1f/%.1f mW, %.2f/%.2f nJ/bit",
					down.PowerMW, up.PowerMW, down.EnergyPerBit*1e9, up.EnergyPerBit*1e9)
			}},
	}
}

// summarizeTrace prints a markdown table aggregating a JSON Lines trace by
// span name: count, total and mean duration, the slowest single span, and —
// for stages that fan out — the parallel efficiency (summed worker-busy time
// over stage wall time, from the "<stage>.busy" companion spans). Busy
// companions are folded into their parent stage's row rather than listed.
func summarizeTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	type agg struct {
		count       int
		totalNS     int64
		maxNS       int64
		first, last int64
		busyNS      int64
		busyCount   int
	}
	byName := make(map[string]*agg)
	get := func(name string) *agg {
		a := byName[name]
		if a == nil {
			a = &agg{first: math.MaxInt64}
			byName[name] = a
		}
		return a
	}
	listed := 0
	for _, s := range spans {
		if stage, ok := strings.CutSuffix(s.Name, obs.SpanBusySuffix); ok {
			a := get(stage)
			a.busyNS += s.DurNS
			a.busyCount++
			continue
		}
		listed++
		a := get(s.Name)
		a.count++
		a.totalNS += s.DurNS
		a.maxNS = max(a.maxNS, s.DurNS)
		a.first = min(a.first, s.StartNS)
		a.last = max(a.last, s.StartNS+s.DurNS)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# Trace summary: %s\n\n%d spans, %d stages.\n\n", path, listed, len(names))
	fmt.Println("| Stage | Spans | Total | Mean | Max | Par |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, name := range names {
		a := byName[name]
		if a.count == 0 {
			// Busy companions with no parent span in the retained window
			// (the tracer ring can evict one without the other).
			continue
		}
		mean := time.Duration(a.totalNS / int64(a.count))
		// Parallel efficiency: summed worker-busy time over wall time. A
		// serial stage emits no busy companion and shows "-"; a perfectly
		// scaled 4-worker stage shows ~4.00x.
		par := "-"
		if a.busyCount > 0 && a.totalNS > 0 {
			par = fmt.Sprintf("%.2fx", float64(a.busyNS)/float64(a.totalNS))
		}
		fmt.Printf("| %s | %d | %s | %s | %s | %s |\n", name, a.count,
			time.Duration(a.totalNS), mean, time.Duration(a.maxNS), par)
	}
	return nil
}

func main() {
	seed := flag.Int64("seed", 1, "base random seed")
	quick := flag.Bool("quick", false, "reduced trial counts")
	tracePath := flag.String("trace", "", "summarize a JSON Lines trace file instead of running experiments")
	flag.Parse()

	if *tracePath != "" {
		if err := summarizeTrace(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "milback-report:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("# MilBack reproduction report")
	fmt.Println()
	fmt.Printf("Generated %s, seed %d, quick=%v.\n\n", time.Now().Format(time.RFC3339), *seed, *quick)
	fmt.Println("| Result | Paper claim | Measured | Verdict |")
	fmt.Println("|---|---|---|---|")
	failures := 0
	for _, c := range claims() {
		ok, detail := c.check(*seed, *quick)
		verdict := "MATCH"
		if !ok {
			verdict = "MISS"
			failures++
		}
		fmt.Printf("| %s | %s | %s | %s |\n", c.id, c.statement, detail, verdict)
	}
	fmt.Println()
	if failures == 0 {
		fmt.Println("All reproduced results match the paper's claims. See EXPERIMENTS.md")
		fmt.Println("for the per-figure discussion and the calibration-vs-emergent split.")
	} else {
		fmt.Printf("%d claim(s) missed — see EXPERIMENTS.md for expected deviations.\n", failures)
		os.Exit(1)
	}
}
