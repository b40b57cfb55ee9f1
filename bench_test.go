// Package repro's root benchmark harness: one sub-benchmark per entry of
// the paper's evaluation (§9, with its ablations and extensions), plus the
// capture, discovery and protocol benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Shape assertions live in internal/experiments tests.
package repro

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fsa"
	"repro/internal/motion"
	"repro/internal/rfsim"
	"repro/internal/waveform"
	"repro/milback"
)

// BenchmarkExperiment regenerates every experiments.Registry entry end to
// end at its quick setting, one sub-benchmark per id, so op time is the
// simulation cost of reproducing that result. The numbers themselves are
// printed by milback-experiments and pinned by its goldens.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(1, true)
			}
		})
	}
}

// discoveryQualitySeed seeds the one untimed sweep BenchmarkDiscoveryScan
// reports its nodes-found and recall metrics from.
const discoveryQualitySeed = 1

// BenchmarkDiscoveryScan measures a full multi-node beam-sweep discovery.
// nodes=3 is a small room; nodes=1024 places nodes like the served fleet
// workload (2–4 m, ±25°, facing −10°), where every pointing synthesizes
// all 1024 targets: one shared FSA beam table per capture, one
// gain-envelope fill per target (fanned out across capture workers — run
// with -cpu 1,2) and the per-chirp tones. From one untimed sweep at a
// fixed seed, so they do not move with b.N, it reports nodes-found (merged
// detections), recall, the fraction of placed nodes with a detection
// within the scan's merge thresholds, and recall-1to1, the fraction matched
// when each detection may claim at most one node. At fleet density one
// detection lies within those thresholds of many nodes, so recall there
// bounds coverage from above; recall-1to1 counts resolved nodes.
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
			scan := core.DefaultScanConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Discover(context.Background(), scan, int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// The quality row comes from one sweep at a fixed seed, so it
			// reads the same at any b.N.
			dets, err := sys.Discover(context.Background(), scan, discoveryQualitySeed)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(dets)), "nodes-found")
			b.ReportMetric(discoveryRecall(tc.nodes, dets, scan), "recall")
			b.ReportMetric(discoveryRecallOneToOne(tc.nodes, dets, scan), "recall-1to1")
		})
	}
}

// discoveryRecall is the fraction of placed nodes ({range m, azimuth °,
// orientation °}) that some detection lies within the scan's merge
// thresholds of: how much of the population a sweep covers, next to how
// many detections it returns.
func discoveryRecall(nodes [][3]float64, dets []core.NodeDetection, scan core.ScanConfig) float64 {
	found := 0
	for _, p := range nodes {
		for _, d := range dets {
			if math.Abs(d.RangeM-p[0]) < scan.MergeRangeM &&
				math.Abs(rfsim.WrapAngle(d.AzimuthRad-rfsim.DegToRad(p[1]))) < rfsim.DegToRad(scan.MergeAngleDeg) {
				found++
				break
			}
		}
	}
	return float64(found) / float64(len(nodes))
}

// discoveryRecallOneToOne is discoveryRecall with each detection matched to
// at most one node: every (node, detection) pair inside the merge
// thresholds is taken greedily, nearest first by planar distance (ties by
// node, then detection index), skipping pairs whose node or detection is
// already matched.
func discoveryRecallOneToOne(nodes [][3]float64, dets []core.NodeDetection, scan core.ScanConfig) float64 {
	type pair struct {
		dist float64
		n, d int
	}
	var pairs []pair
	for i, p := range nodes {
		az := rfsim.DegToRad(p[1])
		np := rfsim.PolarPoint(p[0], az)
		for j, d := range dets {
			if math.Abs(d.RangeM-p[0]) < scan.MergeRangeM &&
				math.Abs(rfsim.WrapAngle(d.AzimuthRad-az)) < rfsim.DegToRad(scan.MergeAngleDeg) {
				pairs = append(pairs, pair{np.Distance(rfsim.PolarPoint(d.RangeM, d.AzimuthRad)), i, j})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		pa, pb := pairs[a], pairs[b]
		if pa.dist != pb.dist {
			return pa.dist < pb.dist
		}
		if pa.n != pb.n {
			return pa.n < pb.n
		}
		return pa.d < pb.d
	})
	nodeUsed := make([]bool, len(nodes))
	detUsed := make([]bool, len(dets))
	matched := 0
	for _, pr := range pairs {
		if !nodeUsed[pr.n] && !detUsed[pr.d] {
			nodeUsed[pr.n], detUsed[pr.d] = true, true
			matched++
		}
	}
	return float64(matched) / float64(len(nodes))
}

// TestDiscoveryRecallOneToOne pins the matcher on a hand-built scene where
// the covering recall over-counts: one detection sits between two nodes
// 10 cm apart, and a second sits on a third node. The covering recall
// credits all three nodes; the one-to-one match pairs the first detection
// with the nearer of the two close nodes only.
func TestDiscoveryRecallOneToOne(t *testing.T) {
	scan := core.DefaultScanConfig()
	nodes := [][3]float64{{3.0, 0, -10}, {3.1, 0, -10}, {5, 20, -10}, {2, -30, -10}}
	dets := []core.NodeDetection{
		{RangeM: 3.07, AzimuthRad: 0},
		{RangeM: 5.01, AzimuthRad: rfsim.DegToRad(20.5)},
	}
	if got := discoveryRecall(nodes, dets, scan); got != 0.75 {
		t.Errorf("covering recall = %g, want 0.75 (both close nodes credited)", got)
	}
	if got := discoveryRecallOneToOne(nodes, dets, scan); got != 0.5 {
		t.Errorf("one-to-one recall = %g, want 0.5", got)
	}
	// Two detections on the close pair resolve both: the nearer pairing
	// is taken first and the other detection claims the remaining node.
	dets = append(dets, core.NodeDetection{RangeM: 3.04, AzimuthRad: 0})
	if got := discoveryRecallOneToOne(nodes, dets, scan); got != 0.75 {
		t.Errorf("one-to-one recall with the pair resolved = %g, want 0.75", got)
	}
	if got := discoveryRecallOneToOne(nodes, nil, scan); got != 0 {
		t.Errorf("one-to-one recall with no detections = %g, want 0", got)
	}
}

// BenchmarkReliableTransfer measures a CRC+ARQ transfer (Send with
// WithARQ) through the public API.
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
		if _, err := c.Send(ctx, n, payload, milback.Rate10Mbps, milback.WithARQ(3)); err != nil {
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

// BenchmarkClusterLocalize times one localization fix through the public
// API on a 1-AP cluster with one node: the grant path (node lock, airtime
// slot, job lease, accounting) plus one capture, so scripts/bench_ab.sh
// catches a grant path that grows next to the capture it brackets.
func BenchmarkClusterLocalize(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Localize(ctx, n); err != nil {
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
	tgt := ap.ConstantGainTarget(rfsim.Point{X: 3}, 5, 25)
	ns := rfsim.NewNoiseSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, err := a.SynthesizeChirps(0, c, 5, []*ap.BackscatterTarget{tgt}, ap.GridTable{}, nil, ns)
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
		ba, bb := a.SynthesizeUplink(0, f, syms, tones, 4, -10, 5e6, 8, ns)
		if _, err := a.DemodulateUplink(ba, bb, 8, len(syms)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCapture runs one synthesize+localize round, the §5.1 pipeline both
// capture benchmarks share.
func benchCapture(b *testing.B, a *ap.AP, nChirps int) {
	c := a.Config().LocalizationChirp
	tgt := ap.ConstantGainTarget(rfsim.Point{X: 3}, 5, 25)
	for i := 0; i < b.N; i++ {
		frames, err := a.SynthesizeChirps(0, c, nChirps, []*ap.BackscatterTarget{tgt}, ap.GridTable{}, nil, rfsim.NewNoiseSource(int64(i+1)))
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

// benchCaptureSteadyState drives the full core localization pipeline — the
// steady-state workload of a deployed AP — against a prepared system.
func benchCaptureSteadyState(b *testing.B) {
	sys := core.MustNewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the buffer pool before measuring.
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

// BenchmarkCaptureSteadyState measures one localization with the capture
// plane's pooled buffers active; every capture derives its clutter paths
// afresh. The allocation gate
// (scripts/alloc_gate.sh) caps its allocs/op, and the A/B perf gate
// (scripts/bench_ab.sh) times it against a base commit.
func BenchmarkCaptureSteadyState(b *testing.B) {
	benchCaptureSteadyState(b)
}

// BenchmarkCaptureParallel2 is the 2-core point on the same curve: with
// BenchmarkCaptureSerial it shows how the intra-capture fan-out scales with
// worker count.
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
// path, but the measured speedup only reflects real hardware parallelism.
// The allocation gate caps its allocs/op, which pay for the fan-outs'
// per-call closures and job records.
func BenchmarkCaptureSteadyStateProcs2(b *testing.B) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	benchCaptureSteadyState(b)
}

// BenchmarkSynthesizeChirps measures chirp-frame synthesis alone — no
// FFTs, no detection — over a 64-chirp burst against a cluttered scene, the
// workload the synthesis kernels target, with a two-state toggling target
// as core builds them.
func BenchmarkSynthesizeChirps(b *testing.B) {
	a := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	c := a.Config().LocalizationChirp
	tgts := []*ap.BackscatterTarget{ap.ConstantGainTarget(rfsim.Point{X: 3}, 5, 25)}
	ns := rfsim.NewNoiseSource(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SynthesizeChirps(0, c, 64, tgts, ap.GridTable{}, nil, ns); err != nil {
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
// scene: the node is trajectory-bound (advanced every op) and an unrelated
// obstruction moves every op. Captures derive clutter per capture either
// way, so the difference from the static steady state is the per-op cost
// of motion itself — trajectory advance, pose sampling and the scene edit
// — and scripts/bench_ab.sh holds its median within 1.5x of the static
// steady state's.
func BenchmarkCaptureMovingScene(b *testing.B) {
	sys := core.MustNewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetTrajectoryAt(n, benchWalkPath(b), 0); err != nil {
		b.Fatal(err)
	}
	// A cart rolls behind the AP: it moves every op but its segment never
	// crosses an AP->clutter path (clutter sits at x >= 3).
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
		scene.Obstructions[0].A, scene.Obstructions[0].B = rfsim.Point{X: -3, Y: y}, rfsim.Point{X: -3, Y: y + 1}
		if _, err := sys.Localize(n, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrajectoryAdvance isolates trajectory advancement itself — pose
// sampling and mover bookkeeping — without any capture work.
func BenchmarkTrajectoryAdvance(b *testing.B) {
	sys := core.MustNewSystem(core.DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetTrajectoryAt(n, benchWalkPath(b), 0); err != nil {
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
