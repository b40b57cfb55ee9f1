package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/ap"
	"repro/internal/fsa"
	"repro/internal/node"
	"repro/internal/rfsim"
)

// nodeGainDBi is the dB form of a node's gain with its ports in the given
// modes: the equivalent node gain rfsim.BackscatterAmplitude takes, per
// sample, through the scalar fsa.ReflectionAmplitudeWithModes.
func nodeGainDBi(n *node.Node, modeA, modeB fsa.Mode, fHz float64) float64 {
	return 20 * math.Log10(n.FSA.ReflectionAmplitudeWithModes(modeA, modeB, fHz, n.OrientationDeg)) / 2
}

// TestGainEnvsMatchScalarFSA pins the gain fill of localizationTarget and
// orientationTarget — fsa.ReflectionEnvelopes over a filled fsa.BeamTable,
// combined per state with AbsorptiveFactor — bit for bit against the scalar
// fsa.ReflectionAmplitudeWithModes it replaces, for every state and grid
// sample. Orientations cover the broadside beam, the default facing, and a
// far off-beam pose where the array factor clamps to the backlobe floor;
// grid lengths cover the real localization chirp and one sample shorter,
// so both an even and an odd length run.
func TestGainEnvsMatchScalarFSA(t *testing.T) {
	cfg := DefaultConfig()
	c := cfg.AP.LocalizationChirp
	fs := cfg.AP.BeatSampleRateHz
	full := c.SampleCount(fs)
	// State s of each target, as (port A mode, port B mode); GainStateOf is
	// the toggle parity, so chirp s is a representative of state s.
	toggling := [2][2]fsa.Mode{{fsa.Absorptive, fsa.Absorptive}, {fsa.Reflective, fsa.Reflective}}
	portB := [2][2]fsa.Mode{{fsa.Absorptive, fsa.Absorptive}, {fsa.Absorptive, fsa.Reflective}}
	views := []struct {
		name  string
		build func(*node.Node) *ap.BackscatterTarget
		modes [2][2]fsa.Mode
	}{
		{"localization", localizationTarget, toggling},
		{"orientation", orientationTarget, portB},
	}
	floor := cfg.Node.FSA.BacklobeFloorDBi
	for _, orient := range []float64{-10, 0, 75} {
		n := node.MustNew(cfg.Node, rfsim.Point{X: 3, Y: 0.4}, orient)
		for _, nSamp := range []int{full, full - 1} {
			freq := make([]float64, nSamp)
			for i := range freq {
				freq[i] = c.FrequencyAt(float64(i) / fs)
			}
			clamped := 0
			for _, f := range freq {
				if n.FSA.GainDBi(fsa.PortA, f, orient) == floor || n.FSA.GainDBi(fsa.PortB, f, orient) == floor {
					clamped++
				}
			}
			if orient == 75 && clamped == 0 {
				t.Fatalf("orient %g°: no sample reaches the backlobe floor; pick a pose further off-beam", orient)
			}
			table := make([]float64, fsa.BeamTableWidth*nSamp)
			n.FSA.BeamTable(freq, table)
			for _, v := range views {
				tgt := v.build(n)
				env := make([]float64, tgt.GainStates*nSamp)
				tgt.Gain.FillEnvs(freq, table, tgt.GainStates, env)
				for s := 0; s < tgt.GainStates; s++ {
					if got := tgt.GainStateOf(s); got != s {
						t.Fatalf("%s: GainStateOf(%d) = %d", v.name, s, got)
					}
					mA, mB := v.modes[s][0], v.modes[s][1]
					for i, f := range freq {
						got := env[s*nSamp+i]
						want := n.FSA.ReflectionAmplitudeWithModes(mA, mB, f, orient)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s orient %g° n=%d state %d sample %d: bulk %v != scalar %v",
								v.name, orient, nSamp, s, i, got, want)
						}
						// The envelope is the linear form of the node's
						// equivalent gain in dB.
						viaDB := math.Pow(10, nodeGainDBi(n, mA, mB, f)/10)
						if math.Abs(viaDB-got) > 1e-12*got {
							t.Fatalf("%s orient %g° n=%d state %d sample %d: dB form gives %v, envelope %v",
								v.name, orient, nSamp, s, i, viaDB, got)
						}
					}
				}
			}
		}
	}
}

// TestDiscoverDeterministicAcrossProcs pins a many-target capture: a
// discovery sweep over 18 nodes at varied ranges, azimuths and
// orientations fans the per-target gain-envelope fill out across workers,
// and must return exactly the detections of the serial (GOMAXPROCS=1) run.
// Each run uses a freshly built system, so no pool state carries over.
func TestDiscoverDeterministicAcrossProcs(t *testing.T) {
	run := func(procs int) []NodeDetection {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := testSystem(t)
		for i := 0; i < 18; i++ {
			d := 2 + 0.25*float64(i)
			az := -40 + 80*float64(i)/17
			orient := -25 + float64((i*7)%11)*5
			if _, err := s.AddNode(rfsim.PolarPoint(d, rfsim.DegToRad(az)), orient); err != nil {
				t.Fatal(err)
			}
		}
		dets, err := s.Discover(context.Background(), DefaultScanConfig(), 11)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: Discover: %v", procs, err)
		}
		return dets
	}
	serial, par := run(1), run(4)
	if len(serial) == 0 {
		t.Fatal("discovery found no nodes")
	}
	if len(serial) != len(par) {
		t.Fatalf("GOMAXPROCS=1 found %d nodes, GOMAXPROCS=4 found %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("detection %d differs:\nGOMAXPROCS=1 %+v\nGOMAXPROCS=4 %+v", i, serial[i], par[i])
		}
	}
}
