package core

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/rfsim"
)

// TestObservabilityDifferential is the instrumentation-neutrality gate: a
// system with the observability plane live must produce bit-identical
// localization, downlink and uplink results to one with it disabled, across
// several seeds. Instruments read clocks and bump atomics but must never
// touch the noise streams.
func TestObservabilityDifferential(t *testing.T) {
	observed := MustNewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
	darkCfg := DefaultConfig()
	darkCfg.DisableObservability = true
	dark := MustNewSystem(darkCfg, rfsim.DefaultIndoorScene())
	if observed.Obs() == nil || observed.Tracer() == nil {
		t.Fatal("default system should have a registry and tracer")
	}
	if dark.Obs() != nil || dark.Tracer() != nil {
		t.Fatal("DisableObservability should leave registry and tracer nil")
	}

	on, err := observed.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	off, err := dark.AddNode(rfsim.Point{X: 4, Y: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}

	payload := []byte("observability differential payload")
	for seed := int64(1); seed <= 3; seed++ {
		gotLoc, gotErr := observed.Localize(on, seed)
		wantLoc, wantErr := dark.Localize(off, seed)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: localize error mismatch: %v vs %v", seed, gotErr, wantErr)
		}
		if gotLoc != wantLoc {
			t.Fatalf("seed %d: localization diverged:\nobserved %+v\ndark     %+v", seed, gotLoc, wantLoc)
		}

		gotUp, gotErr := observed.Uplink(on, 5, payload, 10e6, seed)
		wantUp, wantErr := dark.Uplink(off, 5, payload, 10e6, seed)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: uplink error mismatch: %v vs %v", seed, gotErr, wantErr)
		}
		if gotUp.BitErrors != wantUp.BitErrors || gotUp.BitsSent != wantUp.BitsSent ||
			gotUp.SNRdB != wantUp.SNRdB || !bytes.Equal(gotUp.Data, wantUp.Data) {
			t.Fatalf("seed %d: uplink diverged:\nobserved %+v\ndark     %+v", seed, gotUp, wantUp)
		}

		gotDown, gotErr := observed.Downlink(on, 5, payload, 18e6, seed)
		wantDown, wantErr := dark.Downlink(off, 5, payload, 18e6, seed)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: downlink error mismatch: %v vs %v", seed, gotErr, wantErr)
		}
		if gotDown.BitErrors != wantDown.BitErrors || gotDown.BitsSent != wantDown.BitsSent ||
			!bytes.Equal(gotDown.Data, wantDown.Data) {
			t.Fatalf("seed %d: downlink diverged:\nobserved %+v\ndark     %+v", seed, gotDown, wantDown)
		}
	}
}

// TestObservabilityRecords checks the plumbing end-to-end at the core layer:
// after a localization the registry holds non-zero pipeline, lease and pool
// activity and the tracer retains the stage spans.
func TestObservabilityRecords(t *testing.T) {
	sys := MustNewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
	n, err := sys.AddNode(rfsim.Point{X: 3, Y: 0.5}, -10)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := sys.Localize(n, seed); err != nil {
			t.Fatal(err)
		}
	}
	snap := sys.Obs().Snapshot()
	for _, name := range []string{
		obs.MetricLeasesOpened, obs.MetricLeasesClosed, obs.MetricCapturesAcquired,
		obs.MetricPoolHits, obs.MetricPoolPuts,
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want non-zero", name)
		}
	}
	for _, name := range []string{
		obs.MetricSynthesizeSeconds, obs.MetricFFTSeconds,
		obs.MetricDetectSeconds, obs.MetricLeaseSeconds,
		obs.MetricSynthDrawSeconds, obs.MetricSynthClutterSeconds, obs.MetricSynthTargetsSeconds,
		obs.MetricSynthNoiseSeconds,
	} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s empty, want observations", name)
		}
	}
	if snap.Counters[obs.MetricLeasesReclaimed] != 0 {
		t.Errorf("no lease was leaked, reclaimed = %d", snap.Counters[obs.MetricLeasesReclaimed])
	}
	names := make(map[string]bool)
	for _, s := range sys.Tracer().Snapshot() {
		names[s.Name] = true
		if s.DurNS < 0 {
			t.Errorf("span %s has negative duration", s.Name)
		}
	}
	for _, want := range []string{
		obs.SpanSynthesize, obs.SpanSynthDraw, obs.SpanSynthClutter, obs.SpanSynthTargets,
		obs.SpanSynthNoise, obs.SpanFFT, obs.SpanDetect, obs.SpanLease,
	} {
		if !names[want] {
			t.Errorf("trace missing span %s (have %v)", want, names)
		}
	}
}
