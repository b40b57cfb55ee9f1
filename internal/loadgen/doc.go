// Package loadgen is the load-generation engine behind cmd/milback-loadgen:
// deterministic arrival processes, a mixed-workload operation picker, and
// latency/goodput accounting for driving a milback-serve daemon (or any
// operation executor) at a controlled offered load.
//
// Two driving disciplines are provided, because they answer different
// questions:
//
//   - Open loop (Runner.Open): operations arrive on a Poisson process at a
//     target rate, independent of how fast the system answers. Latency is
//     measured from the *intended* arrival time, so queueing delay under
//     overload is charged to the system rather than silently eliding it
//     (no coordinated omission). This is how capacity claims are made:
//     sweep the offered rate and watch the tail.
//   - Closed loop (Runner.Closed): a fixed number of workers issue
//     operations back to back. Throughput self-limits to what the system
//     sustains; latency excludes queueing that open loop would expose.
//     This is how per-worker service time is measured.
//
// Determinism: all randomness (inter-arrival gaps, workload mix picks,
// operation targets) derives from a SplitMix64 stream seeded by the caller,
// so a fixed seed reproduces the exact same schedule of operations against
// the same deployment. Wall-clock completion times still vary run to run —
// the schedule is deterministic, the host is not.
//
// # Paper map
//
// The paper evaluates a single AP serving a handful of nodes (§9); this
// package is the instrument for the repo's north-star extension of that
// testbed — a network service under concurrent load. Workload mixes
// (localize/send/deliver/move fractions) express the §7/Fig 8 protocol
// operations; offered-load sweeps produce the QPS-vs-tail-latency curves
// that cmd/milback-loadgen prints, one line per load point.
package loadgen
