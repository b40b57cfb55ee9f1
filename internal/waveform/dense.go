package waveform

import (
	"fmt"
	"math/bits"
)

// DenseScheme is the §9.4 extension the paper proposes for raising the
// downlink rate beyond 36 Mbps: "define denser OAQFM modulation schemes,
// where each symbol represent more bits by considering different amplitudes
// for each tone". Each tone is amplitude-keyed over Levels levels
// (0 … Levels−1, level 0 = tone off), so a symbol carries
// 2·log2(Levels) bits. Levels == 2 degenerates to classic OAQFM.
type DenseScheme struct {
	// Levels is the number of amplitude levels per tone (power of two ≥ 2).
	Levels int
	// Gray selects Gray-coded level mapping: adjacent amplitude levels
	// differ in exactly one bit, so the dominant error event (quantizing to
	// a neighbouring level) costs one bit instead of up to log2(Levels).
	Gray bool
}

// Validate checks the scheme.
func (d DenseScheme) Validate() error {
	if d.Levels < 2 || d.Levels&(d.Levels-1) != 0 {
		return fmt.Errorf("waveform: dense OAQFM levels must be a power of two >= 2, got %d", d.Levels)
	}
	return nil
}

// BitsPerSymbol returns 2·log2(Levels).
func (d DenseScheme) BitsPerSymbol() int {
	return 2 * (bits.Len(uint(d.Levels)) - 1)
}

// DenseSymbol is one dense-OAQFM symbol: an amplitude level per tone.
type DenseSymbol struct {
	LevelA, LevelB int
}

// AmplitudeA returns tone A's relative amplitude (0…1).
func (s DenseSymbol) AmplitudeA(d DenseScheme) float64 {
	return float64(s.LevelA) / float64(d.Levels-1)
}

// AmplitudeB returns tone B's relative amplitude (0…1).
func (s DenseSymbol) AmplitudeB(d DenseScheme) float64 {
	return float64(s.LevelB) / float64(d.Levels-1)
}

// EncodeBits packs bits into dense symbols: the first log2(Levels) bits of
// each group key tone A's level (MSB first), the next key tone B's.
// Trailing bits are zero-padded.
func (d DenseScheme) EncodeBits(bitsIn []bool) ([]DenseSymbol, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	per := d.BitsPerSymbol()
	half := per / 2
	var out []DenseSymbol
	for i := 0; i < len(bitsIn); i += per {
		var sym DenseSymbol
		for j := 0; j < half; j++ {
			sym.LevelA <<= 1
			if i+j < len(bitsIn) && bitsIn[i+j] {
				sym.LevelA |= 1
			}
		}
		for j := 0; j < half; j++ {
			sym.LevelB <<= 1
			if i+half+j < len(bitsIn) && bitsIn[i+half+j] {
				sym.LevelB |= 1
			}
		}
		if d.Gray {
			// Assign bit pattern b to the level whose Gray codeword is b:
			// l = gray⁻¹(b), so adjacent levels carry patterns differing in
			// exactly one bit.
			sym.LevelA = grayToBinary(sym.LevelA)
			sym.LevelB = grayToBinary(sym.LevelB)
		}
		out = append(out, sym)
	}
	return out, nil
}

// binaryToGray maps a value to its reflected Gray code.
func binaryToGray(v int) int { return v ^ (v >> 1) }

// grayToBinary inverts binaryToGray.
func grayToBinary(g int) int {
	v := 0
	for ; g > 0; g >>= 1 {
		v ^= g
	}
	return v
}

// DecodeSymbols unpacks dense symbols back to bits, trimming to n bits
// (negative n keeps everything).
func (d DenseScheme) DecodeSymbols(syms []DenseSymbol, n int) ([]bool, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	half := d.BitsPerSymbol() / 2
	var out []bool
	for _, s := range syms {
		if s.LevelA < 0 || s.LevelA >= d.Levels || s.LevelB < 0 || s.LevelB >= d.Levels {
			return nil, fmt.Errorf("waveform: symbol level (%d, %d) outside [0, %d)", s.LevelA, s.LevelB, d.Levels)
		}
		la, lb := s.LevelA, s.LevelB
		if d.Gray {
			la, lb = binaryToGray(la), binaryToGray(lb)
		}
		for j := half - 1; j >= 0; j-- {
			out = append(out, la>>uint(j)&1 == 1)
		}
		for j := half - 1; j >= 0; j-- {
			out = append(out, lb>>uint(j)&1 == 1)
		}
	}
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out, nil
}

// QuantizeLevel maps a measured amplitude (relative to the full-scale
// one-level reference, 0…1-ish with noise) back to the nearest level.
func (d DenseScheme) QuantizeLevel(relAmplitude float64) int {
	if relAmplitude < 0 {
		relAmplitude = 0
	}
	lv := int(relAmplitude*float64(d.Levels-1) + 0.5)
	if lv >= d.Levels {
		lv = d.Levels - 1
	}
	return lv
}
