package ap

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/rfsim"
)

// TestSynthesisSubSpansNestInStage checks the synthesize stage's trace
// split: one observed capture records a draw, clutter, targets and noise
// span, and each lies inside the interval of its ap.synthesize parent.
func TestSynthesisSubSpansNestInStage(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	tr := obs.NewTracer(256)
	a.SetObserver(obs.NewRegistry(), tr)
	tgt := pointTarget(rfsim.Point{X: 3, Y: 0.4}, 20)
	if _, err := a.SynthesizeChirps(0, a.Config().LocalizationChirp, 8, []*BackscatterTarget{tgt}, GridTable{}, nil, rfsim.NewNoiseSource(1)); err != nil {
		t.Fatal(err)
	}

	var parent []obs.Span
	byName := make(map[string][]obs.Span)
	for _, s := range tr.Snapshot() {
		if s.Name == obs.SpanSynthesize {
			parent = append(parent, s)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	if len(parent) != 1 {
		t.Fatalf("want one %s span, got %d", obs.SpanSynthesize, len(parent))
	}
	p := parent[0]
	for _, name := range []string{obs.SpanSynthDraw, obs.SpanSynthClutter, obs.SpanSynthTargets, obs.SpanSynthNoise} {
		spans := byName[name]
		if len(spans) != 1 {
			t.Errorf("want one %s span, got %d", name, len(spans))
			continue
		}
		s := spans[0]
		if s.StartNS < p.StartNS || s.StartNS+s.DurNS > p.StartNS+p.DurNS {
			t.Errorf("%s [%d, %d] lies outside %s [%d, %d]", name, s.StartNS, s.StartNS+s.DurNS,
				obs.SpanSynthesize, p.StartNS, p.StartNS+p.DurNS)
		}
	}
}

// TestEveryConsumerTimesDetect checks that each consumer of the subtracted
// spectra records its post-transform work as one detect stage: one
// ap.detect histogram sample and one span, starting after its ap.fft span
// ends. Work left out of the stage would fall into no AP timing at all.
func TestEveryConsumerTimesDetect(t *testing.T) {
	plain := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	c := plain.Config().LocalizationChirp
	frames := synth(t)(plain.SynthesizeChirps(0, c, 8, []*BackscatterTarget{pointTarget(rfsim.Point{X: 3}, 25)}, GridTable{}, nil, rfsim.NewNoiseSource(5)))
	loc, err := plain.ProcessLocalization(c, frames)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(a *AP) error{
		"ProcessLocalization": func(a *AP) error { _, err := a.ProcessLocalization(c, frames); return err },
		"EstimateOrientationProfile": func(a *AP) error {
			_, err := a.EstimateOrientationProfile(c, frames, loc.PeakIndex(), testMaskHz)
			return err
		},
		"EstimateRadialVelocity": func(a *AP) error { _, err := a.EstimateRadialVelocity(c, frames, loc.PeakBin); return err },
		"DetectTargets":          func(a *AP) error { _, err := a.DetectTargets(c, frames, 4); return err },
	} {
		a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
		reg, tr := obs.NewRegistry(), obs.NewTracer(64)
		a.SetObserver(reg, tr)
		if err := run(a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := reg.Snapshot().Histograms[obs.MetricDetectSeconds].Count; n != 1 {
			t.Errorf("%s: %d detect samples, want 1", name, n)
		}
		byName := make(map[string][]obs.Span)
		for _, s := range tr.Snapshot() {
			byName[s.Name] = append(byName[s.Name], s)
		}
		fft, det := byName[obs.SpanFFT], byName[obs.SpanDetect]
		if len(fft) != 1 || len(det) != 1 {
			t.Errorf("%s: %d %s and %d %s spans, want one each", name, len(fft), obs.SpanFFT, len(det), obs.SpanDetect)
			continue
		}
		if det[0].StartNS < fft[0].StartNS+fft[0].DurNS {
			t.Errorf("%s: detect starts at %d, inside the transform stage ending at %d",
				name, det[0].StartNS, fft[0].StartNS+fft[0].DurNS)
		}
	}
}
