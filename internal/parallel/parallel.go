package parallel

import "runtime"

// ForEach runs fn(0..n-1) concurrently on up to GOMAXPROCS participants: it
// is ForEachScratch for callers that keep no per-worker scratch. When
// GOMAXPROCS (or n) is 1 it degenerates to a plain serial loop on the
// caller, which tests use (via runtime.GOMAXPROCS) to compare parallel
// output against the serial path bit for bit.
func ForEach(n int, fn func(i int)) {
	ForEachScratch(n, runtime.GOMAXPROCS(0), func(_, i int) { fn(i) })
}
