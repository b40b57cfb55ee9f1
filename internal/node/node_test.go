package node

import (
	"math"
	"testing"

	"repro/internal/fsa"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

func testNode(t *testing.T, d float64, orientDeg float64) *Node {
	t.Helper()
	n, err := New(DefaultConfig(), rfsim.Point{X: d}, orientDeg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	good := DefaultConfig()
	if _, err := New(good, rfsim.Point{X: 2}, 0); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.FSA.Elements = 0 },
		func(c *Config) { c.Detector = nil },
		func(c *Config) { c.ADCSampleRateHz = 0 },
		func(c *Config) { c.ADCBits = 0 },
		func(c *Config) { c.ADCBits = 64 },
		func(c *Config) { c.ADCFullScaleV = 0 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if _, err := New(c, rfsim.Point{X: 2}, 0); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestGeometryAccessors(t *testing.T) {
	n := MustNew(DefaultConfig(), rfsim.PolarPoint(3, rfsim.DegToRad(20)), 5)
	if d := n.Distance(); math.Abs(d-3) > 1e-9 {
		t.Errorf("distance = %g, want 3", d)
	}
	if az := rfsim.RadToDeg(n.AzimuthRad()); math.Abs(az-20) > 1e-9 {
		t.Errorf("azimuth = %g, want 20", az)
	}
}

func TestSwitchesDriveFSA(t *testing.T) {
	n := testNode(t, 2, 0)
	// Construction leaves both reflective.
	if n.FSA.ModeOf(fsa.PortA) != fsa.Reflective || n.FSA.ModeOf(fsa.PortB) != fsa.Reflective {
		t.Fatal("initial FSA modes should be reflective")
	}
	n.SetPorts(fsa.Reflective, fsa.Absorptive)
	if n.FSA.ModeOf(fsa.PortA) != fsa.Reflective || n.FSA.ModeOf(fsa.PortB) != fsa.Absorptive {
		t.Error("SetPorts did not reach the FSA")
	}
}

func TestSwitchMechanics(t *testing.T) {
	s := DefaultSwitch()
	if s.State() != fsa.Reflective {
		t.Fatal("switch should start reflective")
	}
	s.Set(fsa.Absorptive)
	if s.State() != fsa.Absorptive {
		t.Error("set failed")
	}
	if !s.CanSustainSymbolRate(80e6) {
		t.Error("ADRF5020-class switch should sustain 80 MHz (160 Mbps OAQFM)")
	}
	if s.CanSustainSymbolRate(10e9) {
		t.Error("10 GHz should exceed the switch")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid mode did not panic")
			}
		}()
		s.Set(fsa.Mode(9))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-positive rate did not panic")
			}
		}()
		s.CanSustainSymbolRate(0)
	}()
}

func TestTonePairForOrientation(t *testing.T) {
	n := testNode(t, 2, 0)
	// Normal incidence: degenerate pair at the band centre (§6.2).
	p := n.TonePairForOrientation(0)
	if !p.Degenerate() || p.FA != 28e9 {
		t.Errorf("normal-incidence pair = %+v, want degenerate at 28 GHz", p)
	}
	// The paper's micro-benchmark (§9.1): orientation whose pair is
	// 27.5 / 28.5 GHz, i.e. ±10°... port A at 27.5 GHz points at -10°.
	p = n.TonePairForOrientation(-10)
	if math.Abs(p.FA-27.5e9) > 1e-3 || math.Abs(p.FB-28.5e9) > 1e-3 {
		t.Errorf("pair at -10° = %g/%g, want 27.5/28.5 GHz", p.FA, p.FB)
	}
}

func TestReceivedPowerGeometry(t *testing.T) {
	cfg := DefaultConfig()
	near := MustNew(cfg, rfsim.Point{X: 2}, 0)
	far := MustNew(cfg, rfsim.Point{X: 8}, 0)
	near.SetPorts(fsa.Absorptive, fsa.Absorptive)
	far.SetPorts(fsa.Absorptive, fsa.Absorptive)
	fc := 28e9
	pn := near.ReceivedPowerW(fsa.PortA, fc, 0.5, 20)
	pf := far.ReceivedPowerW(fsa.PortA, fc, 0.5, 20)
	if ratio := pn / pf; math.Abs(ratio-16) > 0.01 {
		t.Errorf("4x distance power ratio = %g, want 16 (one-way 1/d²)", ratio)
	}
	// Reflective port receives nothing.
	near.SetPorts(fsa.Reflective, fsa.Absorptive)
	if p := near.ReceivedPowerW(fsa.PortA, fc, 0.5, 20); p != 0 {
		t.Errorf("reflective port received %g W", p)
	}
	// Misaligned tone couples much less.
	near.SetPorts(fsa.Absorptive, fsa.Absorptive)
	aligned := near.ReceivedPowerW(fsa.PortA, fc, 0.5, 20)
	misaligned := near.ReceivedPowerW(fsa.PortA, 26.5e9, 0.5, 20)
	if misaligned >= aligned/10 {
		t.Errorf("misaligned tone power %g should be >=10 dB below aligned %g", misaligned, aligned)
	}
}

func TestADCQuantize(t *testing.T) {
	n := testNode(t, 2, 0)
	v := n.ADCQuantize([]float64{-0.5, 0.6, 5})
	if v[0] != 0 {
		t.Errorf("negative input should clamp to 0, got %g", v[0])
	}
	if v[2] != n.Config().ADCFullScaleV {
		t.Errorf("over-range input should clamp to full scale, got %g", v[2])
	}
	lsb := n.Config().ADCFullScaleV / (math.Pow(2, float64(n.Config().ADCBits)) - 1)
	if math.Abs(v[1]-0.6) > lsb/2*1.0001 {
		t.Errorf("quantized 0.6 -> %g, off by more than half LSB", v[1])
	}
}

func TestReceiveAndDecodeSymbolNoiseless(t *testing.T) {
	// The Fig 11 micro-benchmark logic: each symbol produces the right
	// on/off pattern at the two detectors.
	n := testNode(t, 2, -10)
	n.SetPorts(fsa.Absorptive, fsa.Absorptive)
	tones := n.TonePairForOrientation(-10)
	symRate := 1e6
	onA := n.ReceiveSymbol(waveform.Symbol10, tones, 0.5, 20, symRate, nil).VoltsA
	threshold := onA / 2
	for _, sym := range []waveform.Symbol{waveform.Symbol00, waveform.Symbol01, waveform.Symbol10, waveform.Symbol11} {
		r := n.ReceiveSymbol(sym, tones, 0.5, 20, symRate, nil)
		got := waveform.SymbolFromTones(r.VoltsA > threshold, r.VoltsB > threshold)
		if got != sym {
			t.Errorf("symbol %v decoded as %v (reading %+v)", sym, got, r)
		}
	}
}

func TestReceiveSymbolOOKFallback(t *testing.T) {
	n := testNode(t, 2, 0)
	n.SetPorts(fsa.Absorptive, fsa.Absorptive)
	tones := n.TonePairForOrientation(0)
	if !tones.Degenerate() {
		t.Fatal("expected degenerate pair at normal incidence")
	}
	symRate := 1e6
	on := n.ReceiveSymbol(waveform.Symbol11, tones, 0.5, 20, symRate, nil)
	off := n.ReceiveSymbol(waveform.Symbol00, tones, 0.5, 20, symRate, nil)
	threshold := on.VoltsA / 2
	if on.VoltsA <= threshold && on.VoltsB <= threshold {
		t.Error("OOK on-symbol misdecoded")
	}
	if off.VoltsA > threshold || off.VoltsB > threshold {
		t.Error("OOK off-symbol misdecoded")
	}
}

func TestDownlinkSINRBehaviour(t *testing.T) {
	cfg := DefaultConfig()
	symRate := 18e6 // 36 Mbps over 2 bits/symbol
	sinrAt := func(d float64) float64 {
		n := MustNew(cfg, rfsim.Point{X: d}, -10)
		n.SetPorts(fsa.Absorptive, fsa.Absorptive)
		tones := n.TonePairForOrientation(-10)
		return n.DownlinkSINR(fsa.PortA, tones, 0.5, 20, symRate)
	}
	// SINR decreases with distance.
	prev := math.Inf(1)
	for _, d := range []float64{1, 2, 4, 8, 12} {
		s := sinrAt(d)
		if s >= prev {
			t.Errorf("SINR not decreasing at %g m: %g >= %g", d, s, prev)
		}
		prev = s
	}
	// Paper Fig 14 shape: > 12 dB even at 10 m.
	if db := 10 * math.Log10(sinrAt(10)); db < 12 {
		t.Errorf("SINR at 10 m = %.1f dB, want > 12 (Fig 14)", db)
	}
	// And ~25 dB at short range.
	if db := 10 * math.Log10(sinrAt(2)); db < 18 || db > 32 {
		t.Errorf("SINR at 2 m = %.1f dB, want in the low-to-mid 20s", db)
	}
}

func TestDownlinkSINRPortB(t *testing.T) {
	n := testNode(t, 3, 15)
	n.SetPorts(fsa.Absorptive, fsa.Absorptive)
	tones := n.TonePairForOrientation(15)
	a := n.DownlinkSINR(fsa.PortA, tones, 0.5, 20, 1e6)
	b := n.DownlinkSINR(fsa.PortB, tones, 0.5, 20, 1e6)
	// Mirror-symmetric geometry: the two ports should see similar SINR.
	if ra := 10 * math.Log10(a/b); math.Abs(ra) > 3 {
		t.Errorf("port SINR asymmetry = %.1f dB, want < 3", ra)
	}
}

func TestModePower(t *testing.T) {
	n := testNode(t, 2, 0)
	// §9.6: 18 mW during localization and downlink.
	if p := n.ModePower(ModeDownlink, 0); math.Abs(p-18e-3) > 1e-6 {
		t.Errorf("downlink power = %g, want 18 mW", p)
	}
	if p := n.ModePower(ModeLocalization, 10e3); math.Abs(p-18e-3) > 0.1e-3 {
		t.Errorf("localization power = %g, want ~18 mW (10 kHz toggling is negligible)", p)
	}
	// §9.6: 32 mW during uplink (40 Mbps ⇒ 20 MHz per-switch rate).
	if p := n.ModePower(ModeUplink, UplinkToggleRate(40e6)); math.Abs(p-32e-3) > 1e-6 {
		t.Errorf("uplink power = %g, want 32 mW", p)
	}
	if p := n.ModePower(ModeIdle, 0); p != 0 {
		t.Errorf("idle power = %g", p)
	}
}

func TestEnergyPerBitMatchesPaper(t *testing.T) {
	pm := DefaultPowerModel()
	down := EnergyPerBit(pm.Power(ModeDownlink, 0), 36e6)
	if math.Abs(down-0.5e-9) > 0.01e-9 {
		t.Errorf("downlink energy = %g J/bit, want 0.5 nJ/bit", down)
	}
	up := EnergyPerBit(pm.Power(ModeUplink, UplinkToggleRate(40e6)), 40e6)
	if math.Abs(up-0.8e-9) > 0.01e-9 {
		t.Errorf("uplink energy = %g J/bit, want 0.8 nJ/bit", up)
	}
	// Both beat mmTag's 2.4 nJ/bit.
	if down >= 2.4e-9 || up >= 2.4e-9 {
		t.Error("MilBack should beat mmTag's 2.4 nJ/bit")
	}
}

func TestPowerModelValidation(t *testing.T) {
	pm := DefaultPowerModel()
	for _, f := range []func(){
		func() { pm.Power(ModeUplink, -1) },
		func() { pm.Power(OperatingMode(9), 0) },
		func() { UplinkToggleRate(0) },
		func() { EnergyPerBit(1, 0) },
		func() { EnergyPerBit(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	for m, want := range map[OperatingMode]string{
		ModeIdle: "idle", ModeLocalization: "localization",
		ModeDownlink: "downlink", ModeUplink: "uplink",
	} {
		if m.String() != want {
			t.Errorf("mode %d name = %q", int(m), m.String())
		}
	}
}
