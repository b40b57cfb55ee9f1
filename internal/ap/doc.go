// Package ap implements MilBack's access point (paper Fig 7 and §8): an
// FMCW transmitter for localization and orientation sensing, a two-antenna
// receive array for angle-of-arrival, and the two-tone OAQFM transceiver
// for uplink and downlink communication.
//
// The paper builds the AP from a Keysight VXG waveform generator, an
// ADPA7005 PA, 20 dBi horns, ADL8142 LNAs, ZMDB-44H-K+ mixers, ZFHP-*
// high-pass filters and an oscilloscope; here the whole receive chain is
// simulated (DESIGN.md §1). FMCW processing happens in the dechirped (beat)
// domain, which is mathematically identical to mixing the received chirp
// against the transmitted one.
//
// # Paper map
//
//   - §5.1 ranging and AoA — SynthesizeChirps, ProcessLocalization
//     (background subtraction across toggled chirps, two-antenna phase
//     comparison).
//   - §5.2a AP-side orientation — EstimateOrientationProfile (reflected
//     power vs frequency around the node's beat bin).
//   - §6 OAQFM communication — SelectTonePair, SynthesizeUplink,
//     DemodulateUplink and the uplink/downlink link budgets.
//   - ISAC extension — EstimateRadialVelocity (chirp-to-chirp carrier
//     phase), DetectTargets (discovery sweeps).
//
// Each capture stage has one production path. Chirp synthesis runs on
// phasor-recurrence kernels (kernel.go, DESIGN.md §12): beat tones advance
// by one complex multiply per sample, static clutter is rendered once per
// capture into a shared template, and every BackscatterTarget has its gain
// curves filled once per switch state (GainStates/GainStateOf — the FSA
// node's two toggled ports in §5.1) through its one GainEnvelopes fill;
// chirps whose pre-noise frames are bit-identical (a static scene in the
// same switch state) are rendered once and copied. Background subtraction
// transforms the windowed consecutive-chirp differences through one batched
// plan per capture (DESIGN.md §13, §17). The formulations these replaced —
// per-sample-Sincos synthesis and window-every-chirp-then-difference
// subtraction — live on only as test oracles (oracle_test.go) that the
// production paths must match within 1e-9 relative.
//
// When an obs registry is attached via SetObserver, the three pipeline
// stages (synthesize, FFT, detect) record per-call timing histograms and
// trace spans — fast synthesis further splits into clutter-template,
// target-tone and noise sub-stages; with no observer the pipelines skip
// all clock reads. Clutter geometry is not cached: each capture derives
// the scene's clutter paths afresh into a scratch slice of its own from a
// per-AP free list.
//
// The AP holds no pointing: every routine that reads the horns
// (SynthesizeChirps, SynthesizeUplink, UplinkBudget) takes the beam's
// azimuth as an argument and points copies of the horn templates for that
// call, so captures of different nodes may run on one AP concurrently.
package ap
