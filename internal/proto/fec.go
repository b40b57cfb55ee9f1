package proto

import "fmt"

// Hamming(7,4) forward error correction: each 4-bit nibble becomes a 7-bit
// codeword that corrects any single bit error. Combined with a block
// interleaver it turns the sparse random bit errors of a marginal OAQFM
// link into decodable traffic without retransmission — trading 7/4 rate
// overhead for range, the classic alternative to ARQ on links where
// round trips are expensive (each MilBack retransmission replays a whole
// preamble).

// hammingEncodeNibble maps 4 data bits (d3 d2 d1 d0 in bits[0..3]) to a
// 7-bit codeword [p1 p2 d3 p3 d2 d1 d0] (positions 1..7, parity at the
// power-of-two positions).
func hammingEncodeNibble(d [4]bool) [7]bool {
	var c [7]bool
	c[2], c[4], c[5], c[6] = d[0], d[1], d[2], d[3]
	// Parity bits cover positions with the respective bit set in their
	// index (1-based): p1 covers 1,3,5,7; p2 covers 2,3,6,7; p4 covers
	// 4,5,6,7.
	c[0] = c[2] != c[4] != c[6]
	c[1] = c[2] != c[5] != c[6]
	c[3] = c[4] != c[5] != c[6]
	return c
}

// hammingDecodeNibble corrects up to one bit error and returns the 4 data
// bits plus whether a correction was applied.
func hammingDecodeNibble(c [7]bool) (d [4]bool, corrected bool) {
	s1 := c[0] != c[2] != c[4] != c[6]
	s2 := c[1] != c[2] != c[5] != c[6]
	s4 := c[3] != c[4] != c[5] != c[6]
	syndrome := 0
	if s1 {
		syndrome |= 1
	}
	if s2 {
		syndrome |= 2
	}
	if s4 {
		syndrome |= 4
	}
	if syndrome != 0 {
		c[syndrome-1] = !c[syndrome-1]
		corrected = true
	}
	d[0], d[1], d[2], d[3] = c[2], c[4], c[5], c[6]
	return d, corrected
}

// FECEncode expands data bits into Hamming(7,4) codewords and applies a
// block interleaver of the given depth (codewords written row-wise, bits
// read column-wise), so a burst of up to `depth` consecutive channel errors
// lands in distinct codewords. depth 1 disables interleaving.
func FECEncode(bits []bool, depth int) ([]bool, error) {
	if depth < 1 {
		return nil, fmt.Errorf("proto: interleaver depth must be >= 1, got %d", depth)
	}
	// Pad to a whole number of nibbles.
	padded := append([]bool(nil), bits...)
	for len(padded)%4 != 0 {
		padded = append(padded, false)
	}
	coded := make([]bool, 0, len(padded)/4*7)
	for i := 0; i < len(padded); i += 4 {
		var d [4]bool
		copy(d[:], padded[i:i+4])
		cw := hammingEncodeNibble(d)
		coded = append(coded, cw[:]...)
	}
	return interleave(coded, depth), nil
}

// FECDecode inverts FECEncode, correcting up to one error per codeword.
// n limits the returned bits (dropping the pad); it returns the number of
// corrections applied.
func FECDecode(coded []bool, depth, n int) ([]bool, int, error) {
	if depth < 1 {
		return nil, 0, fmt.Errorf("proto: interleaver depth must be >= 1, got %d", depth)
	}
	if len(coded)%7 != 0 {
		return nil, 0, fmt.Errorf("proto: coded length %d is not a codeword multiple", len(coded))
	}
	deint := deinterleave(coded, depth)
	var bits []bool
	corrections := 0
	for i := 0; i < len(deint); i += 7 {
		var cw [7]bool
		copy(cw[:], deint[i:i+7])
		d, corrected := hammingDecodeNibble(cw)
		if corrected {
			corrections++
		}
		bits = append(bits, d[:]...)
	}
	if n >= 0 && n < len(bits) {
		bits = bits[:n]
	}
	return bits, corrections, nil
}

// interleave writes bits row-wise into a depth×cols matrix and reads them
// column-wise. The tail that does not fill a full matrix passes through.
func interleave(bits []bool, depth int) []bool {
	if depth <= 1 || len(bits) < 2*depth {
		return bits
	}
	cols := len(bits) / depth
	body := bits[:cols*depth]
	out := make([]bool, 0, len(bits))
	for c := 0; c < cols; c++ {
		for r := 0; r < depth; r++ {
			out = append(out, body[r*cols+c])
		}
	}
	return append(out, bits[cols*depth:]...)
}

// deinterleave inverts interleave.
func deinterleave(bits []bool, depth int) []bool {
	if depth <= 1 || len(bits) < 2*depth {
		return bits
	}
	cols := len(bits) / depth
	body := bits[:cols*depth]
	out := make([]bool, cols*depth)
	i := 0
	for c := 0; c < cols; c++ {
		for r := 0; r < depth; r++ {
			out[r*cols+c] = body[i]
			i++
		}
	}
	return append(out, bits[cols*depth:]...)
}
