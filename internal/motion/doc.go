// Package motion models continuous-time node trajectories: waypoint paths
// with linear or cubic (Catmull-Rom) segments, evaluated at a simulation
// timestamp to a pose and its analytic velocity.
//
// Paper map (MilBack, SIGCOMM 2023 — and the dynamic workloads of
// PAPERS.md):
//
//   - §9.5 evaluates localization of a moving, hand-carried node; DragonFly
//     (PAPERS.md) pushes the same idea to highly dynamic tags. A Path is
//     the simulator's ground truth for such motion: the node's true pose
//     at any instant, not a sequence of teleports.
//   - §5.2's chirp-to-chirp carrier-phase progression measures radial
//     velocity. The synthesizer needs the true range rate to model it;
//     VelocityAt/RadialVelocity supply the analytic derivative of the
//     trajectory, which the differential gates pin the synthesized Doppler
//     against (internal/core's pose-at-advance sampling).
//   - The 3-D constant-velocity tracker (internal/track) consumes the same
//     trajectories as evaluation ground truth for RMSE-vs-speed curves.
//
// Paths are immutable after construction and safe for concurrent readers;
// binding a path to a node and advancing its motion time is the concern of
// internal/core, which serializes both on the airtime scheduler.
package motion
