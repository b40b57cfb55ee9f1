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
	tgt := statefulTarget(rfsim.Point{X: 3, Y: 0.4}, 20)
	if _, err := a.SynthesizeChirps(a.Config().LocalizationChirp, 8, tgt, nil, rfsim.NewNoiseSource(1)); err != nil {
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
