package experiments

import (
	"fmt"
	"math"

	"repro/internal/ap"
	"repro/internal/ber"
	"repro/internal/core"
	"repro/internal/fsa"
	"repro/internal/node"
	"repro/internal/parallel"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

// AblationSubtractionResult quantifies what background subtraction (§5.1)
// buys: detection of a modulated node vs a static reflector of equal
// strength in a cluttered room.
type AblationSubtractionResult struct {
	Trials                int
	ModulatedDetections   int
	StaticFalseDetections int
}

// AblationBackgroundSubtraction runs `trials` captures each for a node that
// toggles (detectable) and an identical one that does not (must vanish
// under subtraction, like the furniture).
func AblationBackgroundSubtraction(trials int, seed int64) AblationSubtractionResult {
	if trials < 1 {
		panic(fmt.Sprintf("experiments: trials must be >= 1, got %d", trials))
	}
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	res := AblationSubtractionResult{Trials: trials}
	for i := 0; i < trials; i++ {
		mod := ap.ConstantGainTarget(rfsim.Point{X: 4}, 5, 25)
		frames, err := a.SynthesizeChirps(c, 5, []*ap.BackscatterTarget{mod}, ap.GridTable{}, nil, rfsim.NewNoiseSource(seed+int64(i)))
		if err != nil {
			panic(err)
		}
		if _, err := a.ProcessLocalization(c, frames); err == nil {
			res.ModulatedDetections++
		}
		static := ap.ConstantGainTarget(rfsim.Point{X: 4}, 25)
		frames, err = a.SynthesizeChirps(c, 5, []*ap.BackscatterTarget{static}, ap.GridTable{}, nil, rfsim.NewNoiseSource(seed+int64(i)))
		if err != nil {
			panic(err)
		}
		if _, err := a.ProcessLocalization(c, frames); err == nil {
			res.StaticFalseDetections++
		}
	}
	return res
}

// Summary renders the subtraction ablation.
func (r AblationSubtractionResult) Summary() Table {
	return Table{
		Title:   "Ablation — background subtraction (§5.1)",
		Columns: []string{"target", "detections", "trials"},
		Rows: [][]string{
			{"modulated node (10 kHz switching)", fmt.Sprintf("%d", r.ModulatedDetections), fmt.Sprintf("%d", r.Trials)},
			{"static reflector (no switching)", fmt.Sprintf("%d", r.StaticFalseDetections), fmt.Sprintf("%d", r.Trials)},
		},
		Notes: []string{
			"modulation is what separates the node from clutter: the static twin must not be detected",
		},
	}
}

// AblationIsolationRow compares per-port tone isolation for a tapered
// (series-fed, as built) vs a uniform-amplitude FSA aperture.
type AblationIsolationRow struct {
	OrientationDeg            float64
	TaperedDB, UniformSimilar float64
}

// AblationTaperResult reports the aperture-taper ablation.
type AblationTaperResult struct {
	Rows []AblationIsolationRow
}

// AblationAmplitudeTaper evaluates the per-port tone isolation (wanted tone
// gain minus leaked tone gain at the node's bearing) for the default FSA
// across orientations, against a "uniform" variant approximated by the
// first-sidelobe level of an untapered array (−13.3 dB relative, i.e.
// isolation clamped near 13 dB). The taper is what keeps Fig 14's
// short-range SINR interference cap at ~25 dB rather than ~13 dB.
func AblationAmplitudeTaper(orientations []float64) AblationTaperResult {
	f := fsa.Default()
	f.SetModes(fsa.Absorptive, fsa.Absorptive)
	var out AblationTaperResult
	for _, o := range orientations {
		fa := f.FrequencyForAngle(fsa.PortA, o)
		fb := f.FrequencyForAngle(fsa.PortB, o)
		want := f.PortCouplingDBi(fsa.PortA, fa, o)
		leak := f.PortCouplingDBi(fsa.PortA, fb, o)
		iso := want - leak
		uniform := iso
		if uniform > 13.3 {
			uniform = 13.3 // uniform-array first sidelobe bound
		}
		out.Rows = append(out.Rows, AblationIsolationRow{
			OrientationDeg: o, TaperedDB: iso, UniformSimilar: uniform,
		})
	}
	return out
}

// Summary renders the taper ablation.
func (r AblationTaperResult) Summary() Table {
	t := Table{
		Title:   "Ablation — aperture taper vs per-port tone isolation",
		Columns: []string{"orientation (deg)", "tapered isolation (dB)", "uniform-array bound (dB)"},
		Notes: []string{
			"interference-limited downlink SINR equals the isolation; the taper lifts the ~13 dB uniform-array cap",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{f1(row.OrientationDeg), f1(row.TaperedDB), f1(row.UniformSimilar)})
	}
	return t
}

// AblationMirrorRow compares AP-side orientation error with and without the
// ground-plane mirror reflection at one orientation.
type AblationMirrorRow struct {
	OrientationDeg                  float64
	WithMirrorDeg, WithoutMirrorDeg float64
}

// AblationMirrorResult isolates the Fig 13b error bump: re-running the
// AP-side orientation sweep with the mirror path disabled must flatten the
// −6°…−2° window, confirming the injected artifact (and nothing else)
// produces it.
type AblationMirrorResult struct {
	Rows []AblationMirrorRow
}

// AblationMirrorReflection runs the Fig 13b measurement twice per
// orientation — mirror artifact on and off — with identical seeds.
func AblationMirrorReflection(orientations []float64, trials int, seed int64) AblationMirrorResult {
	if trials < 1 {
		panic(fmt.Sprintf("experiments: trials must be >= 1, got %d", trials))
	}
	run := func(mirror bool, orient float64, oi int) float64 {
		cfg := core.DefaultConfig()
		cfg.MirrorReflection = mirror
		sys := core.MustNewSystem(cfg, rfsim.DefaultIndoorScene())
		n, err := sys.AddNode(rfsim.Point{X: 2}, orient)
		if err != nil {
			panic(err)
		}
		var sum float64
		for tr := 0; tr < trials; tr++ {
			loc, err := sys.Localize(n, seed+int64(oi*1000+tr))
			if err != nil {
				panic(fmt.Sprintf("experiments: mirror ablation %g: %v", orient, err))
			}
			sum += math.Abs(loc.OrientationDeg - orient)
		}
		return sum / float64(trials)
	}
	out := AblationMirrorResult{Rows: make([]AblationMirrorRow, len(orientations))}
	parallel.ForEach(len(orientations), func(oi int) {
		o := orientations[oi]
		out.Rows[oi] = AblationMirrorRow{
			OrientationDeg:   o,
			WithMirrorDeg:    run(true, o, oi),
			WithoutMirrorDeg: run(false, o, oi),
		}
	})
	return out
}

// Summary renders the mirror ablation.
func (r AblationMirrorResult) Summary() Table {
	t := Table{
		Title:   "Ablation — ground-plane mirror reflection (the Fig 13b bump)",
		Columns: []string{"orientation (deg)", "mean err, mirror on (deg)", "mean err, mirror off (deg)"},
		Notes: []string{
			"the −6°…−2° error bump exists only with the partially-modulated mirror path present",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.OrientationDeg), f2(row.WithMirrorDeg), f2(row.WithoutMirrorDeg),
		})
	}
	return t
}

// ExtDenseRow is one (scheme, distance) cell of the dense-OAQFM extension
// study.
type ExtDenseRow struct {
	Levels        int
	BitsPerSymbol int
	DistanceM     float64
	SymbolErrors  int
	Symbols       int
}

// ExtDenseResult is the §9.4 future-work study: denser constellations buy
// rate but cost range.
type ExtDenseResult struct {
	Rows []ExtDenseRow
}

// ExtDenseOAQFM sweeps amplitude-level counts and distances, measuring
// symbol error rates through the node's detector chain.
func ExtDenseOAQFM(levels []int, distances []float64, symbols int, seed int64) ExtDenseResult {
	if symbols < 1 {
		panic(fmt.Sprintf("experiments: symbols must be >= 1, got %d", symbols))
	}
	const orient = -10.0
	var out ExtDenseResult
	for _, lv := range levels {
		scheme := waveform.DenseScheme{Levels: lv}
		if err := scheme.Validate(); err != nil {
			panic(err)
		}
		for _, d := range distances {
			n := node.MustNew(node.DefaultConfig(), rfsim.Point{X: d}, orient)
			n.SetPorts(fsa.Absorptive, fsa.Absorptive)
			tones := n.TonePairForOrientation(orient)
			symRate := 36e6 / float64(scheme.BitsPerSymbol())
			ns := rfsim.NewNoiseSource(seed + int64(lv*1000) + int64(d*10))
			top := waveform.DenseSymbol{LevelA: lv - 1, LevelB: lv - 1}
			ref, err := n.ReceiveDenseSymbol(top, scheme, tones, 0.5, 20, symRate, nil)
			if err != nil {
				panic(err)
			}
			errs := 0
			for i := 0; i < symbols; i++ {
				sym := waveform.DenseSymbol{LevelA: i % lv, LevelB: (i * 13 / 5) % lv}
				r, err := n.ReceiveDenseSymbol(sym, scheme, tones, 0.5, 20, symRate, ns)
				if err != nil {
					panic(err)
				}
				got, err := node.DecodeDense(r, ref.VoltsA, ref.VoltsB, scheme)
				if err != nil {
					panic(err)
				}
				if got != sym {
					errs++
				}
			}
			out.Rows = append(out.Rows, ExtDenseRow{
				Levels:        lv,
				BitsPerSymbol: scheme.BitsPerSymbol(),
				DistanceM:     d,
				SymbolErrors:  errs,
				Symbols:       symbols,
			})
		}
	}
	return out
}

// Summary renders the dense-OAQFM study.
func (r ExtDenseResult) Summary() Table {
	t := Table{
		Title:   "Extension — dense OAQFM (§9.4 future work): rate vs range",
		Columns: []string{"levels", "bits/symbol", "distance (m)", "SER"},
		Notes: []string{
			"denser amplitude constellations multiply the downlink rate but shrink the usable range",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Levels),
			fmt.Sprintf("%d", row.BitsPerSymbol),
			f1(row.DistanceM),
			sci(float64(row.SymbolErrors) / float64(row.Symbols)),
		})
	}
	return t
}

// ExtScalingRow is one design point of the FSA/switch scaling study.
type ExtScalingRow struct {
	Elements   int
	GainDBi    float64
	RangeAt10M float64 // max distance with BER <= 1e-6 at 10 Mbps uplink
}

// ExtScalingResult is the §11 future-work study: "both range and data-rate
// can be further increased by designing a larger FSA and faster switches".
type ExtScalingResult struct {
	Rows []ExtScalingRow
}

// ExtFSAScaling sweeps the FSA element count and finds the maximum uplink
// range meeting BER 1e-6 at 10 Mbps for each size.
func ExtFSAScaling(elementCounts []int) ExtScalingResult {
	a := ap.MustNew(ap.DefaultConfig(), rfsim.EmptyScene())
	var out ExtScalingResult
	for _, n := range elementCounts {
		cfg := fsa.DefaultConfig()
		cfg.Elements = n
		f := fsa.MustNew(cfg)
		need := ber.SNRdBForBER(1e-6, ber.DefaultProcessingGainDB)
		maxRange := 0.0
		for d := 0.5; d <= 30; d += 0.25 {
			if a.UplinkBudget(f, d, -10, 10e6).SNRdB() >= need {
				maxRange = d
			} else {
				break
			}
		}
		out.Rows = append(out.Rows, ExtScalingRow{
			Elements:   n,
			GainDBi:    f.PeakGainDBi(),
			RangeAt10M: maxRange,
		})
	}
	return out
}

// Summary renders the scaling study.
func (r ExtScalingResult) Summary() Table {
	t := Table{
		Title:   "Extension — FSA size vs range (§11 future work)",
		Columns: []string{"elements", "peak gain (dBi)", "range @10 Mbps, BER<=1e-6 (m)"},
		Notes: []string{
			"node gain enters the radar equation squared: +3 dB of FSA gain buys ~40% more range",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", row.Elements), f1(row.GainDBi), f2(row.RangeAt10M)})
	}
	return t
}
