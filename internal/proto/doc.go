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
// its beams at one node per packet and schedules packets round-robin
// ("MilBack can potentially support multiple nodes by using spatial
// division multiplexing", §7). The Network type makes that scheduling
// concurrent: an airtime-scheduler goroutine (Engine) owns the simulated
// channel, sessions submit jobs from any goroutine, and each session draws
// its noise from its own deterministic SeedStream — so results are
// bit-identical regardless of how caller goroutines interleave.
//
// Concurrency contract: the *Context methods on Network are safe for
// concurrent use. Direct Session method calls (RunPacketContext,
// SendReliableContext, …) execute on the caller's goroutine without
// scheduling and are only safe when nothing else touches the Network
// concurrently.
//
// The engine records its accounting on the system's obs registry
// (queue-wait and job-duration histograms, per-outcome job counters, one
// trace span per executed job); Stats remains the stable snapshot facade
// over those instruments.
package proto
