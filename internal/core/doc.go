// Package core is the MilBack system engine — the paper's primary
// contribution assembled from its substrates: it wires a simulated AP
// (internal/ap), backscatter nodes (internal/node), the RF channel
// (internal/rfsim) and the waveforms (internal/waveform) into the complete
// pipelines of the paper:
//
//   - Localization (§5.1): FMCW + node switching + background subtraction.
//   - Orientation at the AP (§5.2a): reflected-power-vs-frequency profiling,
//     including the ground-plane mirror-reflection artifact of Fig 13b.
//   - Orientation at the node (§5.2b): triangular-chirp peak separation.
//   - Two-way OAQFM communication (§6) with orientation-derived tone pairs.
//   - The joint protocol (§7) is layered on top by internal/proto.
//
// Every pipeline draws its noise from a seed passed in by the caller, so a
// System is deterministic: same config, same seed, same result, bit for
// bit. A System also owns the deployment's observability plane (an obs
// registry and span tracer shared by the capture plane, the AP pipelines
// and the scheduler engine) unless Config.DisableObservability opts out.
// That is the only switch on the capture pipeline: buffer pooling, the
// synthesis kernels, the batched receive transforms and the
// GOMAXPROCS-sized fan-out are always on, and the reference
// formulations they replaced exist only as test oracles.
package core
