// Package proto implements MilBack's joint communication and localization
// protocol (paper §7, Fig 8). A packet is:
//
//	Preamble Field 1 — triangular chirps; the node senses its own
//	    orientation and learns the payload direction from the chirp count
//	    (3 chirps ⇒ uplink, 2 chirps with a gap ⇒ downlink).
//	Preamble Field 2 — five sawtooth chirps while the node toggles its
//	    ports; the AP localizes the node and senses its orientation.
//	Payload — OAQFM uplink or downlink on the orientation-derived tones.
//
// Multiple nodes are served by spatial-division multiplexing: the AP steers
// its beams at one node per packet and serves one packet at a time
// ("MilBack can potentially support multiple nodes by using spatial
// division multiplexing", §7). Two types carry that: a Session is one
// node's protocol state at one AP, and an Engine is the AP's airtime
// scheduler, a one-slot semaphore over the simulated channel. A job runs on
// its caller's goroutine while it holds the slot, and callers waiting for
// the slot are granted it in arrival order. Each session draws its noise
// from its own deterministic SeedStream, so results are bit-identical
// regardless of how caller goroutines interleave.
//
// Concurrency contract: Engine methods are safe for concurrent use.
// Session methods (Transfer, Localize, …) execute on the caller's
// goroutine without scheduling; the caller runs each one as an Engine job
// (the milback cluster does), or owns the whole system on one goroutine
// (as the experiments and tests do).
//
// The engine records its accounting on the registry it is given
// (queue-wait and job-duration histograms, per-outcome job counters, one
// trace span per executed job); Stats remains the stable snapshot facade
// over those instruments.
package proto
