package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		hits := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// TestForEachSerialFallback: with a single worker the indices must arrive
// in ascending order on the calling goroutine — the property the
// GOMAXPROCS=1 serial oracle of the determinism tests relies on. The
// unsynchronized appends below would trip -race if any index ran elsewhere.
func TestForEachSerialFallback(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ascending := func(label string, order []int, n int) {
		t.Helper()
		if len(order) != n {
			t.Fatalf("%s visited %d of %d indices", label, len(order), n)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("%s visited %v, want ascending order", label, order)
			}
		}
	}
	var order []int
	ForEach(5, func(i int) { order = append(order, i) })
	ascending("ForEach at GOMAXPROCS=1", order, 5)
	order = order[:0]
	ForEachScratch(5, 1, func(w, i int) {
		if w != 0 {
			t.Errorf("serial worker index %d, want 0", w)
		}
		order = append(order, i)
	})
	ascending("ForEachScratch(workers=1)", order, 5)
	// A zero or negative budget must still run everything, serially.
	order = order[:0]
	ForEachScratch(3, 0, func(_, i int) { order = append(order, i) })
	ascending("ForEachScratch(workers=0)", order, 3)
}

// TestForEachConcurrent: with a genuine 8-worker fan-out every index is
// covered exactly once, through both entry points.
func TestForEachConcurrent(t *testing.T) {
	const n, want = 128, 128 * 127 / 2
	var total int64
	ForEachScratch(n, 8, func(_, i int) { atomic.AddInt64(&total, int64(i)) })
	if total != want {
		t.Fatalf("ForEachScratch sum = %d, want %d", total, want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	total = 0
	ForEach(n, func(i int) { atomic.AddInt64(&total, int64(i)) })
	if total != want {
		t.Fatalf("ForEach sum = %d, want %d", total, want)
	}
}
