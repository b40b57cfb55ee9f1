package ap

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/fsa"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

func TestSelectTonePair(t *testing.T) {
	f := fsa.Default()
	p := SelectTonePair(f, 0)
	if !p.Degenerate() || p.FA != 28e9 {
		t.Errorf("normal incidence pair = %+v", p)
	}
	p = SelectTonePair(f, -10)
	if math.Abs(p.FA-27.5e9) > 1 || math.Abs(p.FB-28.5e9) > 1 {
		t.Errorf("pair at -10° = %g/%g, want 27.5/28.5 GHz (the §9.1 micro-benchmark)", p.FA, p.FB)
	}
	// §6.2 OOK fallback: near-normal orientations (for example an
	// orientation *estimate* of half a degree for a node actually at 0°)
	// collapse to the single carrier so the overlapping beams cannot key
	// against each other.
	for _, deg := range []float64{0.5, -1.3, 1.9} {
		if p := SelectTonePair(f, deg); !p.Degenerate() {
			t.Errorf("orientation %g° should fall back to OOK, got %+v", deg, p)
		}
	}
	if p := SelectTonePair(f, 2.5); p.Degenerate() {
		t.Error("2.5° should use two distinct tones")
	}
}

func TestUplinkBudgetShape(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	f := fsa.Default()
	// SNR falls with distance at the two-way (40 log d) slope.
	s2 := a.UplinkBudget(0, f, 2, -10, 10e6)
	s4 := a.UplinkBudget(0, f, 4, -10, 10e6)
	s8 := a.UplinkBudget(0, f, 8, -10, 10e6)
	drop24 := s2.SNRdB() - s4.SNRdB()
	drop48 := s4.SNRdB() - s8.SNRdB()
	if math.Abs(drop24-12.04) > 0.1 || math.Abs(drop48-12.04) > 0.1 {
		t.Errorf("doubling distance dropped %g / %g dB, want ~12 (40 log d)", drop24, drop48)
	}
	// 4x the bit rate costs 6 dB (Fig 15a vs 15b).
	s10 := a.UplinkBudget(0, f, 4, -10, 10e6)
	s40 := a.UplinkBudget(0, f, 4, -10, 40e6)
	if diff := s10.SNRdB() - s40.SNRdB(); math.Abs(diff-6.02) > 0.05 {
		t.Errorf("rate 10→40 Mbps SNR delta = %g dB, want 6", diff)
	}
	// Fig 15a magnitudes: usable SNR at 8 m for 10 Mbps.
	if db := s8.SNRdB(); db < 3 || db > 20 {
		t.Errorf("SNR at 8 m, 10 Mbps = %.1f dB, want mid-single to low-double digits", db)
	}
	if s2.SignalW <= 0 || s2.NoiseW <= 0 {
		t.Error("budget components must be positive")
	}
}

func TestUplinkBudgetRestoresModes(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	f := fsa.Default()
	f.SetModes(fsa.Reflective, fsa.Absorptive)
	a.UplinkBudget(0, f, 3, 5, 10e6)
	if f.ModeOf(fsa.PortA) != fsa.Reflective || f.ModeOf(fsa.PortB) != fsa.Absorptive {
		t.Fatal("UplinkBudget must restore FSA switch state")
	}
}

func TestUplinkBudgetValidation(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	f := fsa.Default()
	for _, fn := range []func(){
		func() { a.UplinkBudget(0, f, 0, 0, 10e6) },
		func() { a.UplinkBudget(0, f, 2, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPilotSymbols(t *testing.T) {
	p := PilotSymbols(4)
	want := []waveform.Symbol{waveform.Symbol11, waveform.Symbol00, waveform.Symbol11, waveform.Symbol00}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("pilot = %v", p)
		}
	}
}

func TestUplinkEndToEndNoiseless(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	f := fsa.Default()
	orient := -10.0
	tones := SelectTonePair(f, orient)
	pilot := 8
	rng := rand.New(rand.NewSource(21))
	data := make([]waveform.Symbol, 64)
	for i := range data {
		data[i] = waveform.Symbol(rng.Intn(4))
	}
	syms := append(PilotSymbols(pilot), data...)
	ba, bb := a.SynthesizeUplink(0, f, syms, tones, 4, orient, 5e6, 8, nil)
	got, err := a.DemodulateUplink(ba, bb, pilot, len(syms))
	if err != nil {
		t.Fatalf("demodulate: %v", err)
	}
	if len(got) != len(data) {
		t.Fatalf("decoded %d symbols, want %d", len(got), len(data))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("symbol %d: got %v want %v (noiseless must be error-free)", i, got[i], data[i])
		}
	}
}

// TestUplinkPointingBelongsToCall pins that an uplink is received with the
// pointing it is given while captures at another pointing run beside it,
// as node jobs of one AP do: gains read from a pointing shared across calls
// would receive one node's send through another node's beam. Run it under
// -race: a shared pointing is a data race on every round, while a wrong
// gain needs an unlucky interleaving to show.
func TestUplinkPointingBelongsToCall(t *testing.T) {
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	f := fsa.Default()
	orient := 5.0
	tones := SelectTonePair(f, orient)
	syms := append(PilotSymbols(8), waveform.Symbol(1), waveform.Symbol(2), waveform.Symbol(3))
	az := rfsim.DegToRad(25)
	uplink := func() []complex128 {
		ba, _ := a.SynthesizeUplink(az, f, syms, tones, 3, orient, 5e6, 4, nil)
		return ba.Samples
	}
	want := uplink()
	chirp := a.Config().LocalizationChirp
	tgt := pointTarget(rfsim.PolarPoint(3, -az), 25)
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := a.SynthesizeChirps(-az, chirp, 2, []*BackscatterTarget{tgt}, GridTable{}, nil, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		if got := uplink(); !slices.Equal(got, want) {
			t.Fatalf("round %d: uplink at 25° changed while captures pointed at -25°", i)
		}
	}
	wg.Wait()
}

func TestUplinkEndToEndWithNoise(t *testing.T) {
	// At 2 m the link is strong: expect error-free decoding even with noise.
	a := MustNew(DefaultConfig(), rfsim.DefaultIndoorScene())
	f := fsa.Default()
	orient := 8.0
	tones := SelectTonePair(f, orient)
	pilot := 8
	rng := rand.New(rand.NewSource(22))
	data := make([]waveform.Symbol, 200)
	for i := range data {
		data[i] = waveform.Symbol(rng.Intn(4))
	}
	syms := append(PilotSymbols(pilot), data...)
	ba, bb := a.SynthesizeUplink(0, f, syms, tones, 2, orient, 5e6, 8, rfsim.NewNoiseSource(23))
	got, err := a.DemodulateUplink(ba, bb, pilot, len(syms))
	if err != nil {
		t.Fatalf("demodulate: %v", err)
	}
	errors := 0
	for i := range data {
		if got[i] != data[i] {
			errors++
		}
	}
	if errors > 0 {
		t.Fatalf("%d symbol errors at 2 m, want 0", errors)
	}
}

func TestUplinkDegradesWithDistance(t *testing.T) {
	// Symbol errors should appear (or at least not decrease) as the node
	// moves out. Use a deliberately high noise figure to force errors into
	// the Monte-Carlo-visible range.
	cfg := DefaultConfig()
	cfg.NoiseFigureDB = 22
	a := MustNew(cfg, rfsim.DefaultIndoorScene())
	f := fsa.Default()
	orient := -10.0
	tones := SelectTonePair(f, orient)
	pilot := 8
	rng := rand.New(rand.NewSource(30))
	data := make([]waveform.Symbol, 600)
	for i := range data {
		data[i] = waveform.Symbol(rng.Intn(4))
	}
	syms := append(PilotSymbols(pilot), data...)
	countErrors := func(d float64) int {
		ba, bb := a.SynthesizeUplink(0, f, syms, tones, d, orient, 5e6, 4, rfsim.NewNoiseSource(31))
		got, err := a.DemodulateUplink(ba, bb, pilot, len(syms))
		if err != nil {
			t.Fatalf("d=%g: %v", d, err)
		}
		n := 0
		for i := range data {
			if got[i] != data[i] {
				n++
			}
		}
		return n
	}
	near := countErrors(1)
	far := countErrors(10)
	if far <= near {
		t.Errorf("errors near=%d far=%d: should grow with distance", near, far)
	}
	if far == 0 {
		t.Error("expected visible errors at 10 m with 22 dB noise figure")
	}
}

func TestDemodulateUplinkValidation(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	s := UplinkStream{Samples: make([]complex128, 100), SamplesPerSymbol: 4}
	if _, err := a.DemodulateUplink(s, s, 3, 10); err == nil {
		t.Error("odd pilot should fail")
	}
	if _, err := a.DemodulateUplink(s, s, 8, 8); err == nil {
		t.Error("total <= pilot should fail")
	}
	if _, err := a.DemodulateUplink(s, s, 8, 1000); err == nil {
		t.Error("stream too short should fail")
	}
	// All-zero stream: zero channel estimate.
	if _, err := a.DemodulateUplink(s, s, 8, 20); err == nil {
		t.Error("zero stream should fail with zero channel estimate")
	}
}

func TestSynthesizeUplinkValidation(t *testing.T) {
	a := MustNew(DefaultConfig(), nil)
	f := fsa.Default()
	tones := SelectTonePair(f, 5)
	syms := PilotSymbols(4)
	for _, fn := range []func(){
		func() { a.SynthesizeUplink(0, f, syms, tones, 0, 5, 5e6, 4, nil) },
		func() { a.SynthesizeUplink(0, f, syms, tones, 2, 5, 0, 4, nil) },
		func() { a.SynthesizeUplink(0, f, syms, tones, 2, 5, 5e6, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
