// Package parallel provides the deterministic fan-out helper shared by the
// simulator's hot paths (chirp synthesis, range-FFT batches) and the
// experiment sweeps.
//
// The contract every caller must honour: fn(i) derives everything it needs
// from the index i alone (its own simulator state, its own seeds, its own
// output slot), so results are bit-identical to a serial run regardless of
// goroutine scheduling. Random draws shared across indices must be performed
// serially *before* fanning out — see ap.SynthesizeChirps, which draws
// every chirp's noise up front in chirp order so the RNG stream matches the
// historical serial implementation exactly.
//
// The package has no counterpart in the paper — it exists so the simulator
// can reproduce the paper's figures quickly without giving up the
// fixed-seed reproducibility the evaluation rests on.
package parallel
