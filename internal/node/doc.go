// Package node implements MilBack's backscatter node (paper Fig 4): a
// dual-port FSA whose ports run through SPDT switches into envelope
// detectors, read by a low-power micro-controller that also drives the
// switches. The node has no mmWave actives — no amplifier, mixer,
// oscillator, or phased array — which is what keeps it at 18–32 mW.
//
// The hardware parts substituted here (DESIGN.md §1): the ADL6010 envelope
// detector becomes a linear-responding detector with finite video bandwidth
// and output noise; the ADRF5020 SPDT switch becomes a state machine with a
// maximum toggle rate and a toggle-rate-dependent draw in PowerModel; the
// MSP430's ADC becomes a 1 MHz sampler with quantization.
//
// # Paper map
//
//   - §5.2b node-side orientation — SampleField1Chirp, EstimateOrientation
//     (triangular-chirp peak separation on the node's own detectors).
//   - §6.1 downlink reception — ReceiveSymbol, DownlinkSINR (the
//     envelope-detector signal path).
//   - §7 direction detection — Field1Trace, DetectDirection (chirp count
//     announces uplink vs downlink).
//   - §9.6 power — PowerModel and the per-mode power/energy accounting.
package node
