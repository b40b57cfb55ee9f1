// Package experiments regenerates every table and figure of the paper's
// evaluation (§9). Each experiment is a pure function of its parameters and
// a base seed, returning the same rows/series the paper plots. Registry
// fixes each experiment's paper and quick settings and its claim check;
// cmd/milback-experiments prints the entries, cmd/milback-report judges
// their claims and bench_test.go's BenchmarkExperiment times them. The
// per-experiment index lives in DESIGN.md §3 and the paper-vs-measured
// record in EXPERIMENTS.md.
//
// # Paper map
//
//   - Fig 10 FSA pattern — Fig10FSAPattern.
//   - Fig 11 OAQFM decoding — Fig11OAQFM.
//   - Fig 12a/12b ranging and angle accuracy — Fig12aRanging, Fig12bAngle.
//   - Fig 13a/13b orientation accuracy — Fig13aNodeOrientation,
//     Fig13bAPOrientation.
//   - Fig 14 downlink / Fig 15 uplink — Fig14Downlink, Fig15Uplink.
//   - §9.6 power — Sec96Power.
package experiments
