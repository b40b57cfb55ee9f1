// Package dsp provides the digital signal processing substrate used by the
// MilBack simulator: power-of-two FFT plans and their batched, packed
// execution, single-bin DFT evaluation, phasor-recurrence tone synthesis,
// Hann and Hamming windows, a windowed-sinc low-pass FIR, CFAR detection,
// peak search with sub-bin interpolation, and basic statistics.
//
// Everything is implemented from scratch on top of the standard library so
// the module has no external dependencies. Signals are represented as
// []complex128 (complex baseband) or []float64 (real-valued envelopes).
//
// The package carries no paper-specific logic of its own — it is the math
// under every pipeline: the range FFTs of §5.1 and the masked-IFFT beat
// isolation of §5.2a both run through one fused radix-2² kernel, bitwise
// identical to the plain radix-2 schedule. FFT plans are cached per size
// (PlanFFT, PlanBatch), which is what lets the capture plane reuse twiddle
// factors across every chirp of a session; any size that is not a power of
// two is rejected.
package dsp
