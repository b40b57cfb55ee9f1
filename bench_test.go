// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (§9), plus ablation benchmarks for the
// design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its experiment end to end, so op time measures
// the full simulation cost of reproducing that result. Shape assertions
// live in internal/experiments tests; the benchmarks additionally report
// the headline metric of each figure via b.ReportMetric.
package repro

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ap"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/fsa"
	"repro/internal/motion"
	"repro/internal/node"
	"repro/internal/rfsim"
	"repro/internal/waveform"
	"repro/milback"
)

// BenchmarkFig10_FSAPattern regenerates the dual-port FSA beam pattern.
func BenchmarkFig10_FSAPattern(b *testing.B) {
	var span float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10FSAPattern(1)
		first := r.Series[0].PeakAngleDeg
		last := r.Series[6].PeakAngleDeg
		span = last - first
	}
	b.ReportMetric(span, "scan-deg")
}

// BenchmarkFig11_OAQFM regenerates the OAQFM micro-benchmark.
func BenchmarkFig11_OAQFM(b *testing.B) {
	ok := 0.0
	for i := 0; i < b.N; i++ {
		if experiments.Fig11OAQFM(int64(i + 1)).AllDecoded() {
			ok++
		}
	}
	b.ReportMetric(ok/float64(b.N), "decode-rate")
}

// BenchmarkFig12a_Ranging regenerates the ranging-accuracy sweep (reduced
// trial count per op; the full 20-trial version runs in the experiments
// tests and the CLI).
func BenchmarkFig12a_Ranging(b *testing.B) {
	var mean8 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12aRanging([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 5, int64(i+1))
		mean8 = r.Rows[7].MeanErrM * 100
	}
	b.ReportMetric(mean8, "cm-mean-err@8m")
}

// BenchmarkFig12b_Angle regenerates the angle-accuracy CDF.
func BenchmarkFig12b_Angle(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12bAngle([]float64{-30, -15, 0, 15, 30}, 3, 5, int64(i+1))
		median = r.MedianDeg
	}
	b.ReportMetric(median, "deg-median-err")
}

// BenchmarkFig13a_NodeOrientation regenerates node-side orientation sensing.
func BenchmarkFig13a_NodeOrientation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13aNodeOrientation([]float64{-20, -10, 0, 10, 20}, 5, int64(i+1))
		worst = r.MaxMeanErr()
	}
	b.ReportMetric(worst, "deg-worst-mean-err")
}

// BenchmarkFig13b_APOrientation regenerates AP-side orientation sensing.
func BenchmarkFig13b_APOrientation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13bAPOrientation([]float64{-12, -4, 4, 12}, 5, int64(i+1))
		worst = r.MaxMeanErr()
	}
	b.ReportMetric(worst, "deg-worst-mean-err")
}

// BenchmarkFig14_Downlink regenerates the downlink SINR sweep.
func BenchmarkFig14_Downlink(b *testing.B) {
	var sinr10 float64
	for i := 0; i < b.N; i++ {
		r := experiments.DefaultFig14Downlink()
		sinr10 = r.Rows[9].SINRdB
	}
	b.ReportMetric(sinr10, "dB-SINR@10m")
}

// BenchmarkFig15a_Uplink10Mbps regenerates the 10 Mbps uplink sweep
// (closed form only per op; Monte-Carlo runs in the CLI).
func BenchmarkFig15a_Uplink10Mbps(b *testing.B) {
	var snr8 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15Uplink(10e6, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0, int64(i+1))
		snr8 = r.Rows[7].SNRdB
	}
	b.ReportMetric(snr8, "dB-SNR@8m")
}

// BenchmarkFig15b_Uplink40Mbps regenerates the 40 Mbps uplink sweep.
func BenchmarkFig15b_Uplink40Mbps(b *testing.B) {
	var snr6 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15Uplink(40e6, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 0, int64(i+1))
		snr6 = r.Rows[5].SNRdB
	}
	b.ReportMetric(snr6, "dB-SNR@6m")
}

// BenchmarkTable1_Comparison regenerates the capability matrix.
func BenchmarkTable1_Comparison(b *testing.B) {
	full := 0.0
	for i := 0; i < b.N; i++ {
		r := experiments.Table1Comparison()
		full = float64(len(baseline.OnlyFullFeatured(r.Systems)))
	}
	b.ReportMetric(full, "full-featured-systems")
}

// BenchmarkSec96_Power regenerates the power/energy analysis.
func BenchmarkSec96_Power(b *testing.B) {
	var upMW float64
	for i := 0; i < b.N; i++ {
		r := experiments.Sec96Power()
		upMW = r.Rows[2].PowerMW
	}
	b.ReportMetric(upMW, "mW-uplink")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6): each isolates one design choice.
// ---------------------------------------------------------------------------

// BenchmarkAblation_BackgroundSubtraction measures detection success with
// the §5.1 node switching enabled vs a static reflector: the static target
// must be invisible, the switching one visible, in a cluttered room.
func BenchmarkAblation_BackgroundSubtraction(b *testing.B) {
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	detected := 0.0
	for i := 0; i < b.N; i++ {
		modulated := &ap.BackscatterTarget{
			Pos: rfsim.Point{X: 4},
			GainDBi: func(k int, f float64) float64 {
				if k%2 == 1 {
					return 25
				}
				return 5
			},
		}
		frames, err := a.SynthesizeChirps(c, 5, modulated, nil, rfsim.NewNoiseSource(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.ProcessLocalization(c, frames); err == nil {
			detected++
		}
	}
	b.ReportMetric(detected/float64(b.N), "detect-rate")
}

// BenchmarkAblation_PeakInterpolation compares ranging error with and
// without sub-bin parabolic interpolation by quantizing the refined position
// back to the integer bin.
func BenchmarkAblation_PeakInterpolation(b *testing.B) {
	sys := core.MustNewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 5}, 8)
	if err != nil {
		b.Fatal(err)
	}
	var sum float64
	cnt := 0
	for i := 0; i < b.N; i++ {
		loc, err := sys.Localize(n, int64(i+1))
		if err != nil {
			continue
		}
		sum += abs(loc.RangeM - 5)
		cnt++
	}
	if cnt > 0 {
		b.ReportMetric(sum/float64(cnt)*100, "cm-mean-err")
	}
}

// BenchmarkAblation_DualPortVsSinglePort measures the downlink capacity
// benefit of the dual-port FSA: a dual-tone symbol carries 2 bits, the
// zero-incidence OOK fallback only 1.
func BenchmarkAblation_DualPortVsSinglePort(b *testing.B) {
	f := fsa.Default()
	var ratio float64
	for i := 0; i < b.N; i++ {
		dual := ap.SelectTonePair(f, -10)
		single := ap.SelectTonePair(f, 0)
		ratio = float64(dual.BitsPerSymbol()) / float64(single.BitsPerSymbol())
	}
	b.ReportMetric(ratio, "bits-per-symbol-ratio")
}

// BenchmarkAblation_SwitchRateVsPower sweeps the uplink bit rate and
// reports the node power at the top rate, exposing the linear
// rate↔power trade of §9.6.
func BenchmarkAblation_SwitchRateVsPower(b *testing.B) {
	pm := node.DefaultPowerModel()
	var topMW float64
	for i := 0; i < b.N; i++ {
		for _, rate := range []float64{10e6, 20e6, 40e6, 80e6, 160e6} {
			topMW = pm.Power(node.ModeUplink, node.UplinkToggleRate(rate)) * 1e3
		}
	}
	b.ReportMetric(topMW, "mW@160Mbps")
}

// BenchmarkExtension_DenseOAQFM measures the §9.4 dense-modulation study.
func BenchmarkExtension_DenseOAQFM(b *testing.B) {
	var ser8 float64
	for i := 0; i < b.N; i++ {
		r := experiments.ExtDenseOAQFM([]int{2, 8}, []float64{2, 8}, 200, int64(i+1))
		last := r.Rows[len(r.Rows)-1]
		ser8 = float64(last.SymbolErrors) / float64(last.Symbols)
	}
	b.ReportMetric(ser8, "SER-8level@8m")
}

// BenchmarkExtension_FSAScaling measures the §11 size-vs-range study.
func BenchmarkExtension_FSAScaling(b *testing.B) {
	var r28 float64
	for i := 0; i < b.N; i++ {
		r := experiments.ExtFSAScaling([]int{14, 28})
		r28 = r.Rows[1].RangeAt10M
	}
	b.ReportMetric(r28, "m-range-28elem")
}

// BenchmarkExtension_Doppler measures the radial-velocity pipeline.
func BenchmarkExtension_Doppler(b *testing.B) {
	sys := core.MustNewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 3}, 8)
	if err != nil {
		b.Fatal(err)
	}
	var got float64
	for i := 0; i < b.N; i++ {
		v, err := sys.MeasureRadialVelocity(n, 1.5, 32, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		got = v
	}
	b.ReportMetric(got, "mps-est-for-1.5")
}

// BenchmarkDiscoveryScan measures a full multi-node beam-sweep discovery.
// nodes=3 is a small room; nodes=1024 places nodes like the served fleet
// workload (2–4 m, ±25°, facing −10°), where every pointing synthesizes
// all 1024 targets and the per-target gain-envelope fill dominates — run
// with -cpu 1,2 to see that fill fan out across capture workers.
func BenchmarkDiscoveryScan(b *testing.B) {
	small := [][3]float64{{2.5, -25, 5}, {4, 0, 5}, {6, 22, 5}}
	fleet := make([][3]float64, 1024)
	for i := range fleet {
		// A golden-ratio sequence in azimuth against an even ramp in range
		// covers the sector without lattice gaps.
		u := (float64(i) + 0.5) / float64(len(fleet))
		v := math.Mod(float64(i)*0.6180339887498949, 1)
		fleet[i] = [3]float64{2 + 2*u, 25 * (2*v - 1), -10}
	}
	for _, tc := range []struct {
		name  string
		nodes [][3]float64
	}{{"nodes=3", small}, {"nodes=1024", fleet}} {
		b.Run(tc.name, func(b *testing.B) {
			sys := core.MustNewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
			for _, p := range tc.nodes {
				if _, err := sys.AddNode(rfsim.PolarPoint(p[0], rfsim.DegToRad(p[1])), p[2]); err != nil {
					b.Fatal(err)
				}
			}
			found := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dets, err := sys.Discover(core.DefaultScanConfig(), int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				found = float64(len(dets))
			}
			b.ReportMetric(found, "nodes-found")
		})
	}
}

// BenchmarkReliableTransfer measures a CRC+ARQ transfer through the public
// API.
func BenchmarkReliableTransfer(b *testing.B) {
	ctx := context.Background()
	c, err := milback.NewCluster(milback.WithSeed(2))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	n, err := c.Join(ctx, 2.5, 0.3, -10)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("reliable benchmark payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SendReliable(ctx, n, payload, milback.Rate10Mbps, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd_ProtocolPacket measures one full Fig-8 packet (preamble
// + localization + uplink payload) through the public API.
func BenchmarkEndToEnd_ProtocolPacket(b *testing.B) {
	ctx := context.Background()
	c, err := milback.NewCluster(milback.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	n, err := c.Join(ctx, 3, 0.5, -10)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("benchmark payload 0123456789")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Send(ctx, n, payload, milback.Rate10Mbps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkThroughput measures the concurrent session engine: K
// goroutines on distinct nodes push uplink packets through the AP airtime
// scheduler. Per-op time is one full round of K packets; the reported
// metric is the aggregate simulated-payload rate over simulated airtime,
// from Cluster.Stats.
func BenchmarkNetworkThroughput(b *testing.B) {
	ctx := context.Background()
	c, err := milback.NewCluster(milback.WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	placements := [][3]float64{
		{2.0, -0.8, 10}, {2.5, -0.3, -8}, {3.0, 0.2, 5}, {2.6, 0.9, -12},
	}
	nodes := make([]milback.NodeID, len(placements))
	for i, p := range placements {
		if nodes[i], err = c.Join(ctx, p[0], p[1], p[2]); err != nil {
			b.Fatal(err)
		}
	}
	payload := []byte("throughput benchmark payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func(n milback.NodeID) {
				defer wg.Done()
				if _, err := c.Send(ctx, n, payload, milback.Rate10Mbps); err != nil {
					b.Error(err)
				}
			}(n)
		}
		wg.Wait()
	}
	b.StopTimer()
	if st := c.Stats(); st.AirtimeS > 0 {
		b.ReportMetric(float64(st.BitsSent)/st.AirtimeS/1e6, "sim-Mbps")
	}
}

// BenchmarkFMCWChirpProcessing isolates the per-chirp DSP cost (synthesis +
// range FFT + subtraction), the inner loop of every localization.
func BenchmarkFMCWChirpProcessing(b *testing.B) {
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	tgt := &ap.BackscatterTarget{
		Pos: rfsim.Point{X: 3},
		GainDBi: func(k int, f float64) float64 {
			if k%2 == 1 {
				return 25
			}
			return 5
		},
	}
	ns := rfsim.NewNoiseSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, err := a.SynthesizeChirps(c, 5, tgt, nil, ns)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.ProcessLocalization(c, frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUplinkChain isolates the uplink synthesize+demodulate path.
func BenchmarkUplinkChain(b *testing.B) {
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	f := fsa.Default()
	tones := ap.SelectTonePair(f, -10)
	syms := append(ap.PilotSymbols(8), make([]waveform.Symbol, 64)...)
	for i := 8; i < len(syms); i++ {
		syms[i] = waveform.Symbol(i % 4)
	}
	ns := rfsim.NewNoiseSource(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ba, bb := a.SynthesizeUplink(f, syms, tones, 4, -10, 5e6, 8, ns)
		if _, err := a.DemodulateUplink(ba, bb, 8, len(syms)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Plan-cached FFT vs the seed's per-call implementation, and serial vs
// parallel capture. The seed algorithm is reproduced below verbatim as the
// uncached baseline; BENCH_seed.json records the measured gap (see
// scripts/bench_baseline.sh).
// ---------------------------------------------------------------------------

// seedRadix2FFT is the pre-plan per-call transform: it re-derives the
// bit-reversal permutation and every stage's twiddle factors on each call.
func seedRadix2FFT(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			s, c := math.Sincos(step * float64(k))
			w := complex(c, s)
			for start := k; start < n; start += size {
				even := x[start]
				odd := x[start+half] * w
				x[start] = even + odd
				x[start+half] = even - odd
			}
		}
	}
}

func benchSignal(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		s, c := math.Sincos(2 * math.Pi * 37 * float64(i) / float64(n))
		x[i] = complex(c, s)
	}
	return x
}

// BenchmarkFFT2048PlanCached measures the plan-backed transform at the
// pipeline's dominant size (cfg.FFTSize = 2048).
func BenchmarkFFT2048PlanCached(b *testing.B) {
	x := benchSignal(2048)
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		dsp.PlanFFT(len(buf)).Forward(buf)
	}
}

// BenchmarkFFT2048Uncached measures the seed's per-call implementation at
// the same size — the baseline the plan cache replaces.
func BenchmarkFFT2048Uncached(b *testing.B) {
	x := benchSignal(2048)
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		seedRadix2FFT(buf)
	}
}

// benchCapture runs one synthesize+localize round, the §5.1 pipeline both
// capture benchmarks share.
func benchCapture(b *testing.B, a *ap.AP, nChirps int) {
	c := a.Config().LocalizationChirp
	tgt := &ap.BackscatterTarget{
		Pos: rfsim.Point{X: 3},
		GainDBi: func(k int, f float64) float64 {
			if k%2 == 1 {
				return 25
			}
			return 5
		},
	}
	for i := 0; i < b.N; i++ {
		frames, err := a.SynthesizeChirps(c, nChirps, tgt, nil, rfsim.NewNoiseSource(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.ProcessLocalization(c, frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaptureSerial forces the chirp pipeline onto one worker.
func BenchmarkCaptureSerial(b *testing.B) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	b.ResetTimer()
	benchCapture(b, a, 32)
}

// BenchmarkCaptureParallel runs the same pipeline with all cores; output is
// bit-identical to the serial run (see internal/ap pipeline tests).
func BenchmarkCaptureParallel(b *testing.B) {
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	b.ResetTimer()
	benchCapture(b, a, 32)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// benchCaptureSteadyState drives the full core localization pipeline — the
// steady-state workload of a deployed AP — against a prepared system.
func benchCaptureSteadyState(b *testing.B) {
	sys := core.MustNewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the pool and the clutter cache before measuring.
	if _, err := sys.Localize(n, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Localize(n, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaptureSteadyState measures allocations per localization with
// the capture plane's pooled buffers and clutter cache active — the
// allocation gate (scripts/alloc_gate.sh) caps it at an absolute
// allocs/op bound.
func BenchmarkCaptureSteadyState(b *testing.B) {
	benchCaptureSteadyState(b)
}

// BenchmarkCaptureParallel4 is BenchmarkCaptureParallel with GOMAXPROCS
// pinned to 4, so the chirp fan-out exercises the concurrent path (and its
// pool contention) even on single-core CI machines where GOMAXPROCS would
// otherwise degenerate the ForEach to serial.
func BenchmarkCaptureParallel4(b *testing.B) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	b.ResetTimer()
	benchCapture(b, a, 32)
}

// BenchmarkCaptureParallel2 is the 2-core point on the same curve: with
// BenchmarkCaptureSerial and BenchmarkCaptureParallel4 it shows how the
// intra-capture fan-out scales with worker count.
func BenchmarkCaptureParallel2(b *testing.B) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	b.ResetTimer()
	benchCapture(b, a, 32)
}

// BenchmarkCaptureSteadyStateProcs2 runs the full steady-state localization
// pipeline with GOMAXPROCS pinned to 2 so the intra-capture worker pool
// engages. On a 1-core machine the pin still forces the concurrent code
// path, but the measured speedup only reflects real hardware parallelism —
// scripts/bench_compare.sh keys its scaling gate on the recorded per-row
// gomaxprocs AND the machine's core count.
func BenchmarkCaptureSteadyStateProcs2(b *testing.B) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	benchCaptureSteadyState(b)
}

// BenchmarkCaptureSteadyStateProcs4 is the 4-core point: the bench_compare
// gate requires ≥2x over the single-core BenchmarkCaptureSteadyState when
// the machine actually has ≥4 cores.
func BenchmarkCaptureSteadyStateProcs4(b *testing.B) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	benchCaptureSteadyState(b)
}

// BenchmarkSynthesizeChirpsMulti measures chirp-frame synthesis alone — no
// FFTs, no detection — over a 64-chirp burst against a cluttered scene, the
// workload the synthesis kernels target. The target declares its two
// switch states so the gain-envelope memo engages, matching how core builds
// its targets.
func BenchmarkSynthesizeChirpsMulti(b *testing.B) {
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	tgts := []*ap.BackscatterTarget{{
		Pos: rfsim.Point{X: 3},
		GainDBi: func(k int, f float64) float64 {
			if k%2 == 1 {
				return 25
			}
			return 5
		},
		GainStates:  2,
		GainStateOf: func(k int) int { return k & 1 },
	}}
	ns := rfsim.NewNoiseSource(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SynthesizeChirpsMulti(c, 64, tgts, nil, ns); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWalkPath is the slow drift the moving-scene benchmarks bind: 20 cm
// over 200 s near the steady-state benchmark's node placement, so per-op
// motion is realistic (sub-millimeter) and the node never leaves the
// detection geometry no matter how many iterations run (PoseAt holds the
// endpoint).
func benchWalkPath(b *testing.B) *motion.Path {
	p, err := motion.NewPath([]motion.Waypoint{
		{T: 0, X: 4, Y: 0.5, OrientationDeg: 5},
		{T: 200, X: 4.2, Y: 0.5, OrientationDeg: 5},
	}, motion.Linear)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkCaptureMovingScene is BenchmarkCaptureSteadyState on a dynamic
// scene: the node is trajectory-bound (advanced every op, dirtying its scene
// entry) and an unrelated obstruction churns every op. With per-dependency
// clutter invalidation both dirt kinds are cheap — node dirt never touches
// the clutter cache and the blocker's segment crosses no clutter path — so
// the PR 8 gate in scripts/bench_compare.sh holds this within 2x of the
// static steady state.
func BenchmarkCaptureMovingScene(b *testing.B) {
	sys := core.MustNewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetTrajectoryAt(n, "bench-walker", benchWalkPath(b), 0); err != nil {
		b.Fatal(err)
	}
	// A cart rolls behind the AP: it dirties the scene every op but its
	// segment never crosses an AP->clutter path (clutter sits at x >= 3).
	scene := sys.AP.Scene()
	scene.AddObstruction(rfsim.Obstruction{
		Name: "cart", A: rfsim.Point{X: -3, Y: -3}, B: rfsim.Point{X: -3, Y: -2}, LossDB: 30,
	})
	if _, err := sys.Localize(n, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AdvanceTrajectory(n, 1e-3); err != nil {
			b.Fatal(err)
		}
		y := -3 + 0.1*float64(i%10)
		scene.MoveObstruction("cart", rfsim.Point{X: -3, Y: y}, rfsim.Point{X: -3, Y: y + 1})
		if _, err := sys.Localize(n, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrajectoryAdvance isolates trajectory advancement itself — pose
// sampling, mover bookkeeping, and the scene dirty record — without any
// capture work.
func BenchmarkTrajectoryAdvance(b *testing.B) {
	sys := core.MustNewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetTrajectoryAt(n, "bench-walker", benchWalkPath(b), 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.AdvanceTrajectory(n, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}
