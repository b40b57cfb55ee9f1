package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/rfsim"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(DefaultConfig(), rfsim.DefaultIndoorScene())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.LocalizationChirps = 1 },
		func(c *Config) { c.OrientationMaskHalfWidthHz = 0 },
		func(c *Config) { c.OrientationMaskHalfWidthHz = math.NaN() },
		func(c *Config) { c.OrientationMaskHalfWidthHz = math.Inf(1) },
		func(c *Config) { c.MirrorWidthDeg = 0 },
		func(c *Config) { c.MirrorModulationDepth = 2 },
		func(c *Config) { c.AP.TxPowerW = 0 },
		// Every capture carries the FSA beam table, so a node FSA the
		// table cannot be built for fails here, not at the first join.
		func(c *Config) { c.Node.FSA.Elements = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := NewSystem(cfg, nil); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
	if _, err := NewSystem(DefaultConfig(), nil); err != nil {
		t.Fatalf("default rejected: %v", err)
	}
}

func TestAddNode(t *testing.T) {
	s := testSystem(t)
	n, err := s.AddNode(rfsim.Point{X: 3}, 10)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if len(s.Nodes()) != 1 || s.Nodes()[0] != n {
		t.Fatal("node not registered")
	}
	if n.OrientationDeg != 10 || n.Distance() != 3 {
		t.Fatal("node placement wrong")
	}
	// Invalid node config propagates.
	bad := DefaultConfig()
	bad.Node.ADCBits = 0
	sb := MustNewSystem(DefaultConfig(), nil)
	sb.cfg = bad
	if _, err := sb.AddNode(rfsim.Point{X: 1}, 0); err == nil {
		t.Error("bad node config should fail")
	}
}

func TestLocalizeRangeAndAngle(t *testing.T) {
	s := testSystem(t)
	for _, tc := range []struct {
		d, azDeg, orient float64
	}{
		{2, 0, 0},
		{5, 10, -12},
		{8, -20, 15},
	} {
		n, err := s.AddNode(rfsim.PolarPoint(tc.d, rfsim.DegToRad(tc.azDeg)), tc.orient)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Localize(n, int64(tc.d*1000))
		if err != nil {
			t.Fatalf("d=%g: %v", tc.d, err)
		}
		if math.Abs(out.RangeM-tc.d) > 0.15 {
			t.Errorf("d=%g: range %.3f", tc.d, out.RangeM)
		}
		if got := rfsim.RadToDeg(out.AzimuthRad); math.Abs(got-tc.azDeg) > 3 {
			t.Errorf("az=%g: estimated %.2f", tc.azDeg, got)
		}
		if math.Abs(out.OrientationDeg-tc.orient) > 3 {
			t.Errorf("orient=%g: AP estimated %.2f", tc.orient, out.OrientationDeg)
		}
	}
}

func TestLocalizeMirrorArtifactDegradesNearMinusFour(t *testing.T) {
	// Fig 13b: orientation error is elevated in the −6°…−2° window because
	// the partially-modulated mirror reflection survives subtraction.
	s := testSystem(t)
	meanErr := func(orient float64) float64 {
		var sum float64
		const trials = 10
		for i := 0; i < trials; i++ {
			n, err := s.AddNode(rfsim.Point{X: 2}, orient)
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.Localize(n, int64(i)+int64(orient*100))
			if err != nil {
				t.Fatalf("orient %g: %v", orient, err)
			}
			sum += math.Abs(out.OrientationDeg - orient)
		}
		return sum / trials
	}
	bad := meanErr(-4)
	good := meanErr(16)
	if bad <= good {
		t.Errorf("mirror window error %.2f° should exceed far-from-mirror %.2f°", bad, good)
	}
	// Even in the bad window the paper reports < ~3° mean error.
	if bad > 3.5 {
		t.Errorf("mirror-window mean error %.2f°, want <= 3.5 (Fig 13b)", bad)
	}
}

func TestSenseOrientationAtNode(t *testing.T) {
	s := testSystem(t)
	for _, orient := range []float64{-20, -5, 0, 10, 22} {
		n, err := s.AddNode(rfsim.Point{X: 2}, orient)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.SenseOrientationAtNode(n, int64(orient*7)+99)
		if err != nil {
			t.Fatalf("orient %g: %v", orient, err)
		}
		if math.Abs(res.EstimateDeg-orient) > 3 {
			t.Errorf("orient %g: node estimated %.2f", orient, res.EstimateDeg)
		}
	}
}

func TestDownlinkEndToEnd(t *testing.T) {
	s := testSystem(t)
	n, err := s.AddNode(rfsim.PolarPoint(3, rfsim.DegToRad(5)), -10)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello milback downlink")
	res, err := s.Downlink(n, n.OrientationDeg, payload, 18e6, 42)
	if err != nil {
		t.Fatalf("Downlink: %v", err)
	}
	if res.BitErrors != 0 {
		t.Errorf("bit errors = %d at 3 m, want 0 (SINR %.1f dB)", res.BitErrors, res.SINRdB)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Errorf("payload mismatch: %q", res.Data)
	}
	if res.SINRdB < 12 {
		t.Errorf("SINR = %.1f dB at 3 m, want > 12", res.SINRdB)
	}
	if res.Tones.Degenerate() {
		t.Error("tone pair should be distinct at -10°")
	}
	if res.BER() != 0 {
		t.Errorf("BER = %g", res.BER())
	}
}

func TestDownlinkOOKFallbackAtNormalIncidence(t *testing.T) {
	// §6.2: when the node faces the AP, f_A == f_B and the link falls back
	// to single-carrier OOK — and must still work.
	s := testSystem(t)
	n, err := s.AddNode(rfsim.Point{X: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xA5, 0x3C}
	res, err := s.Downlink(n, 0, payload, 18e6, 43)
	if err != nil {
		t.Fatalf("Downlink: %v", err)
	}
	if !res.Tones.Degenerate() {
		t.Fatal("tone pair should be degenerate at 0°")
	}
	if res.BitErrors != 0 || !bytes.Equal(res.Data, payload) {
		t.Errorf("OOK fallback failed: %d errors, data %x", res.BitErrors, res.Data)
	}
}

func TestDownlinkUsesAPOrientationEstimate(t *testing.T) {
	// The full §7 flow: localize first, then communicate with the estimated
	// (not ground-truth) orientation. A couple of degrees of estimation
	// error must not break the link (§9.3: "3-4 degree error ... will not
	// impact on the performance of communication").
	s := testSystem(t)
	n, err := s.AddNode(rfsim.PolarPoint(4, rfsim.DegToRad(-8)), 14)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := s.Localize(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("estimated-orientation link")
	res, err := s.Downlink(n, loc.OrientationDeg, payload, 18e6, 44)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitErrors != 0 {
		t.Errorf("bit errors with estimated orientation = %d (est %.2f°, true 14°)",
			res.BitErrors, loc.OrientationDeg)
	}
}

func TestUplinkEndToEnd(t *testing.T) {
	s := testSystem(t)
	n, err := s.AddNode(rfsim.PolarPoint(3, 0), -10)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("uplink payload from the node")
	res, err := s.Uplink(n, n.OrientationDeg, payload, 10e6, 45)
	if err != nil {
		t.Fatalf("Uplink: %v", err)
	}
	if res.BitErrors != 0 || !bytes.Equal(res.Data, payload) {
		t.Errorf("uplink failed: %d errors, %q", res.BitErrors, res.Data)
	}
	if res.SNRdB < 10 {
		t.Errorf("uplink SNR at 3 m = %.1f dB, want comfortable margin", res.SNRdB)
	}
}

func TestUplinkRejectsExcessiveRate(t *testing.T) {
	s := testSystem(t)
	n, err := s.AddNode(rfsim.Point{X: 2}, -10)
	if err != nil {
		t.Fatal(err)
	}
	// 160 Mbps is the paper's switch-limited maximum; far beyond it fails.
	if _, err := s.Uplink(n, -10, []byte{1}, 400e6, 1); err == nil {
		t.Fatal("excessive rate should be rejected by the switch model")
	}
}

func TestExchangeValidation(t *testing.T) {
	s := testSystem(t)
	n, err := s.AddNode(rfsim.Point{X: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Downlink(n, 5, nil, 18e6, 1); err == nil {
		t.Error("empty downlink payload should fail")
	}
	if _, err := s.Downlink(n, 5, []byte{1}, 0, 1); err == nil {
		t.Error("zero symbol rate should fail")
	}
	if _, err := s.Uplink(n, 5, nil, 10e6, 1); err == nil {
		t.Error("empty uplink payload should fail")
	}
	if _, err := s.Uplink(n, 5, []byte{1}, 0, 1); err == nil {
		t.Error("zero bit rate should fail")
	}
}

func TestDeterminism(t *testing.T) {
	s := testSystem(t)
	n, err := s.AddNode(rfsim.PolarPoint(6, rfsim.DegToRad(8)), -6)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Localize(n, 123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Localize(n, 123)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave different outcomes: %+v vs %+v", a, b)
	}
	c, err := s.Localize(n, 124)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds gave identical outcomes (noise not applied?)")
	}
}
