// Command milback-experiments regenerates the paper's evaluation tables and
// figures (§9), plus the ablation (abl-*) and extension (ext-*) studies.
// With no arguments it runs everything; otherwise pass one or more
// experiment ids. `milback-experiments -list` prints every id with a
// one-line description.
//
// Flags:
//
//	-seed N    base random seed (default 1)
//	-quick     reduced trial counts for a fast smoke run
//	-csv       emit CSV instead of aligned tables (for plotting)
//	-list      print the available experiment ids and exit
//
// Each experiment prints the same rows/series the paper reports, annotated
// with the paper's reference values (see EXPERIMENTS.md for the comparison
// record).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
)

type experiment struct {
	id, desc string
	run      func(seed int64, quick bool) experiments.Table
}

func registry() []experiment {
	return []experiment{
		{"fig10", "dual-port FSA beam pattern", func(seed int64, quick bool) experiments.Table {
			return experiments.Fig10FSAPattern(1).Summary()
		}},
		{"fig11", "OAQFM micro-benchmark", func(seed int64, quick bool) experiments.Table {
			return experiments.Fig11OAQFM(seed).Summary()
		}},
		{"fig12a", "ranging accuracy vs distance", func(seed int64, quick bool) experiments.Table {
			trials := 20
			if quick {
				trials = 5
			}
			return experiments.Fig12aRanging([]float64{1, 2, 3, 4, 5, 6, 7, 8}, trials, seed).Summary()
		}},
		{"fig12b", "angle accuracy CDF", func(seed int64, quick bool) experiments.Table {
			trials := 20
			if quick {
				trials = 5
			}
			return experiments.Fig12bAngle([]float64{-30, -20, -10, 0, 10, 20, 30}, 3, trials, seed).Summary()
		}},
		{"fig13a", "orientation sensing at the node", func(seed int64, quick bool) experiments.Table {
			trials := 25
			if quick {
				trials = 5
			}
			return experiments.Fig13aNodeOrientation(experiments.DefaultFig13Orientations(), trials, seed).Summary()
		}},
		{"fig13b", "orientation sensing at the AP", func(seed int64, quick bool) experiments.Table {
			trials := 25
			if quick {
				trials = 5
			}
			return experiments.Fig13bAPOrientation(experiments.DefaultFig13Orientations(), trials, seed).Summary()
		}},
		{"fig14", "downlink SINR vs distance", func(seed int64, quick bool) experiments.Table {
			return experiments.DefaultFig14Downlink().Summary()
		}},
		{"fig15a", "uplink SNR/BER at 10 Mbps", func(seed int64, quick bool) experiments.Table {
			mc := 40000
			if quick {
				mc = 4000
			}
			return experiments.Fig15Uplink(10e6, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, mc, seed).Summary()
		}},
		{"fig15b", "uplink SNR/BER at 40 Mbps", func(seed int64, quick bool) experiments.Table {
			mc := 40000
			if quick {
				mc = 4000
			}
			return experiments.Fig15Uplink(40e6, []float64{1, 2, 3, 4, 5, 6, 7, 8}, mc, seed).Summary()
		}},
		{"table1", "capability comparison vs prior systems", func(seed int64, quick bool) experiments.Table {
			return experiments.Table1Comparison().Summary()
		}},
		{"power", "node power consumption and energy per bit (§9.6)", func(seed int64, quick bool) experiments.Table {
			return experiments.Sec96Power().Summary()
		}},
		{"abl-subtraction", "ablation: background subtraction on/off", func(seed int64, quick bool) experiments.Table {
			trials := 20
			if quick {
				trials = 5
			}
			return experiments.AblationBackgroundSubtraction(trials, seed).Summary()
		}},
		{"abl-taper", "ablation: aperture taper vs tone isolation", func(seed int64, quick bool) experiments.Table {
			return experiments.AblationAmplitudeTaper([]float64{-25, -20, -15, -10, -5, 5, 10, 15, 20, 25}).Summary()
		}},
		{"abl-mirror", "ablation: ground-plane mirror reflection (Fig 13b bump)", func(seed int64, quick bool) experiments.Table {
			trials := 15
			if quick {
				trials = 5
			}
			return experiments.AblationMirrorReflection([]float64{-12, -8, -6, -4, -2, 0, 4, 12}, trials, seed).Summary()
		}},
		{"ext-dense", "extension: dense OAQFM rate-vs-range (§9.4)", func(seed int64, quick bool) experiments.Table {
			syms := 2000
			if quick {
				syms = 300
			}
			return experiments.ExtDenseOAQFM([]int{2, 4, 8}, []float64{2, 4, 6, 8, 10}, syms, seed).Summary()
		}},
		{"ext-scaling", "extension: FSA size vs range (§11)", func(seed int64, quick bool) experiments.Table {
			return experiments.ExtFSAScaling([]int{7, 10, 14, 20, 28, 40}).Summary()
		}},
		{"ext-doppler", "extension: radial-velocity sensing from the localization burst", func(seed int64, quick bool) experiments.Table {
			trials := 10
			if quick {
				trials = 3
			}
			return experiments.ExtDoppler([]float64{-5, -1, -0.3, 0.3, 1, 5, 20}, []int{8, 32, 128}, trials, seed).Summary()
		}},
		{"ext-mobility", "extension: localization RMSE vs trajectory speed (0.5-10 m/s)", func(seed int64, quick bool) experiments.Table {
			trials := 10
			if quick {
				trials = 3
			}
			return experiments.ExtMobilityRMSE([]float64{0.5, 1, 2, 4, 7, 10}, 20, 3, trials, seed).Summary()
		}},
		{"ext-fading", "extension: Rician fading outage on the uplink", func(seed int64, quick bool) experiments.Table {
			draws := 20000
			if quick {
				draws = 2000
			}
			return experiments.ExtFadingOutage([]float64{3, 8, 15}, []float64{2, 4, 6, 8, 10}, draws, seed).Summary()
		}},
		{"ext-goodput", "extension: protocol overhead, goodput vs payload size", func(seed int64, quick bool) experiments.Table {
			return experiments.DefaultExtGoodput().Summary()
		}},
	}
}

func main() {
	seed := flag.Int64("seed", 1, "base random seed")
	quick := flag.Bool("quick", false, "reduced trial counts")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	exps := registry()
	if *list {
		width := 0
		for _, e := range exps {
			width = max(width, len(e.id))
		}
		for _, e := range exps {
			fmt.Printf("%-*s %s\n", width, e.id, e.desc)
		}
		return
	}
	want := flag.Args()
	byID := map[string]experiment{}
	for _, e := range exps {
		byID[e.id] = e
	}
	if len(want) == 0 {
		for _, e := range exps {
			want = append(want, e.id)
		}
	}
	var unknown []string
	for _, id := range want {
		if _, ok := byID[strings.ToLower(id)]; !ok {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiment id(s): %s (use -list)\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}
	for _, id := range want {
		e := byID[strings.ToLower(id)]
		tbl := e.run(*seed, *quick)
		if *csvOut {
			fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
		} else {
			fmt.Println(tbl)
		}
	}
}
