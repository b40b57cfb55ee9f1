// Package capture is MilBack's capture plane: the one code path every
// over-the-air operation flows through. Each of the paper's primitives —
// §5.1 localization, §5.2 orientation sensing (both sides), Doppler
// velocity, and §6 OAQFM communication — is the same ritual of "steer the
// horns, draw this capture's hardware imperfections, synthesize or sample
// the waveform, process, release the buffers". Before this package existed
// that ritual was hand-rolled per pipeline in internal/core; now a Plane
// owns it once and the pipelines only differ in what they do with the
// captured frames.
//
// # Lifecycle
//
// An operation opens a Lease with Plane.Acquire, which records the beam's
// pointing on the lease and seeds the operation's deterministic noise
// source. The pointing is the lease's own (Lease.Steer re-points only that
// lease), and so are its noise stream and captures, so leases of
// different nodes' operations capture on one plane side by side. Chirp-burst captures
// come from Lease.Chirps; each returns a Capture whose frames live in
// pooled buffers. Ownership rules:
//
//   - The caller owns a Capture's frames until it calls Release; after
//     Release the frame buffers belong to the pool and must not be read
//     (Release nils the Rx slices so stale reads fail loudly as
//     empty-frame errors rather than silently reading recycled data).
//   - Release is idempotent; Lease.Close releases every capture the lease
//     still holds, so `defer lease.Close()` is sufficient cleanup even on
//     error paths. A lease never closed (a recovered panic) is not
//     reclaimed: the garbage collector takes its buffers, and the lease
//     counters show it as opened but not closed.
//
// The pooled path is bit-identical to the allocate-per-capture path: pool
// buffers are zeroed on Get and the synthesis math is unchanged. A bare
// ap.AP — no plane, so no pool — is the allocate-everything oracle the
// differential tests compare a Plane against.
//
// # Observability
//
// With WithObserver the plane counts lease opens and closes, records
// a lease-lifetime histogram and one trace span per closed lease, and the
// pool counts buffer hits/misses/puts/drops. Instrumentation is
// allocation-free and never touches the noise streams, so observed and
// unobserved runs are bit-identical.
package capture
