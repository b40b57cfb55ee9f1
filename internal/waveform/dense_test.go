package waveform

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDenseSchemeValidate(t *testing.T) {
	for _, lv := range []int{0, 1, 3, 5, 6} {
		if err := (DenseScheme{Levels: lv}).Validate(); err == nil {
			t.Errorf("levels %d should be rejected", lv)
		}
	}
	for _, lv := range []int{2, 4, 8, 16} {
		if err := (DenseScheme{Levels: lv}).Validate(); err != nil {
			t.Errorf("levels %d rejected: %v", lv, err)
		}
	}
}

func TestDenseBitsPerSymbol(t *testing.T) {
	cases := map[int]int{2: 2, 4: 4, 8: 6, 16: 8}
	for lv, want := range cases {
		if got := (DenseScheme{Levels: lv}).BitsPerSymbol(); got != want {
			t.Errorf("levels %d: %d bits/symbol, want %d", lv, got, want)
		}
	}
	// Levels 2 matches classic OAQFM's 2 bits/symbol.
	if (DenseScheme{Levels: 2}).BitsPerSymbol() != (TonePair{FA: 1, FB: 2}).BitsPerSymbol() {
		t.Error("binary dense scheme should match classic OAQFM")
	}
}

func TestDenseEncodeDecodeRoundTrip(t *testing.T) {
	for _, lv := range []int{2, 4, 8} {
		scheme := DenseScheme{Levels: lv}
		f := func(data []byte) bool {
			bits := BytesToBits(data)
			syms, err := scheme.EncodeBits(bits)
			if err != nil {
				return false
			}
			back, err := scheme.DecodeSymbols(syms, len(bits))
			if err != nil || len(back) != len(bits) {
				return false
			}
			for i := range bits {
				if bits[i] != back[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("levels %d: %v", lv, err)
		}
	}
}

func TestDenseAmplitudes(t *testing.T) {
	scheme := DenseScheme{Levels: 4}
	s := DenseSymbol{LevelA: 3, LevelB: 1}
	if a := s.AmplitudeA(scheme); math.Abs(a-1) > 1e-12 {
		t.Errorf("top level amplitude = %g, want 1", a)
	}
	if b := s.AmplitudeB(scheme); math.Abs(b-1.0/3) > 1e-12 {
		t.Errorf("level 1 amplitude = %g, want 1/3", b)
	}
	if a := (DenseSymbol{}).AmplitudeA(scheme); a != 0 {
		t.Errorf("level 0 amplitude = %g", a)
	}
}

func TestDenseQuantizeLevel(t *testing.T) {
	scheme := DenseScheme{Levels: 4}
	cases := []struct {
		in   float64
		want int
	}{
		{0, 0}, {0.1, 0}, {0.33, 1}, {0.5, 2}, {0.66, 2}, {0.9, 3}, {1.0, 3},
		{-0.2, 0}, // clamps
		{1.5, 3},  // clamps
	}
	for _, c := range cases {
		if got := scheme.QuantizeLevel(c.in); got != c.want {
			t.Errorf("quantize(%g) = %d, want %d", c.in, got, c.want)
		}
	}
	// Quantize inverts AmplitudeX exactly for every level.
	for lv := 0; lv < 4; lv++ {
		s := DenseSymbol{LevelA: lv}
		if got := scheme.QuantizeLevel(s.AmplitudeA(scheme)); got != lv {
			t.Errorf("level %d round trip -> %d", lv, got)
		}
	}
}

func TestGrayCodeProperties(t *testing.T) {
	// Round trip.
	for v := 0; v < 64; v++ {
		if got := grayToBinary(binaryToGray(v)); got != v {
			t.Errorf("gray round trip %d -> %d", v, got)
		}
	}
	// Adjacent values differ in exactly one bit after Gray mapping.
	for v := 0; v < 63; v++ {
		diff := binaryToGray(v) ^ binaryToGray(v+1)
		if diff&(diff-1) != 0 || diff == 0 {
			t.Errorf("gray(%d) and gray(%d) differ in more than one bit", v, v+1)
		}
	}
}

func TestDenseGrayRoundTrip(t *testing.T) {
	scheme := DenseScheme{Levels: 8, Gray: true}
	f := func(data []byte) bool {
		bits := BytesToBits(data)
		syms, err := scheme.EncodeBits(bits)
		if err != nil {
			return false
		}
		back, err := scheme.DecodeSymbols(syms, len(bits))
		if err != nil || len(back) != len(bits) {
			return false
		}
		for i := range bits {
			if bits[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGrayReducesBitErrorsPerAdjacentSlip(t *testing.T) {
	// Simulate the dominant dense-OAQFM error event: a level slipping to a
	// neighbour. Count resulting bit errors with and without Gray coding.
	countBitErrs := func(gray bool) int {
		scheme := DenseScheme{Levels: 8, Gray: gray}
		total := 0
		for v := 0; v < 7; v++ {
			// Encode the 3 bits that map to (binary or Gray) level, slip
			// the level by +1, decode, compare.
			var bits []bool
			for j := 2; j >= 0; j-- {
				bits = append(bits, v>>uint(j)&1 == 1)
			}
			bits = append(bits, false, false, false) // tone B = level 0
			syms, err := scheme.EncodeBits(bits)
			if err != nil {
				t.Fatal(err)
			}
			// Adjacent slip (downward at the top level).
			if syms[0].LevelA == scheme.Levels-1 {
				syms[0].LevelA--
			} else {
				syms[0].LevelA++
			}
			back, err := scheme.DecodeSymbols(syms, len(bits))
			if err != nil {
				t.Fatal(err)
			}
			for i := range bits {
				if bits[i] != back[i] {
					total++
				}
			}
		}
		return total
	}
	binary := countBitErrs(false)
	gray := countBitErrs(true)
	if gray != 7 {
		t.Errorf("Gray: %d bit errors over 7 adjacent slips, want exactly 7 (one each)", gray)
	}
	if binary <= gray {
		t.Errorf("binary mapping (%d bit errors) should be worse than Gray (%d)", binary, gray)
	}
}

func TestDenseDecodeRejectsBadLevels(t *testing.T) {
	scheme := DenseScheme{Levels: 4}
	if _, err := scheme.DecodeSymbols([]DenseSymbol{{LevelA: 4}}, -1); err == nil {
		t.Error("out-of-range level should fail")
	}
	if _, err := scheme.DecodeSymbols([]DenseSymbol{{LevelB: -1}}, -1); err == nil {
		t.Error("negative level should fail")
	}
	if _, err := (DenseScheme{Levels: 3}).EncodeBits([]bool{true}); err == nil {
		t.Error("invalid scheme should fail to encode")
	}
}
