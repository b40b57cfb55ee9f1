package parallel

import (
	"sync"
	"sync/atomic"
)

// ForEachScratch runs fn(worker, i) for every i in [0, n) across up to
// `workers` concurrent participants — the calling goroutine plus helpers
// drawn from a persistent package-level pool — and returns how many
// participants actually joined. It is the package's one fan-out
// implementation (ForEach wraps it), shaped for sub-millisecond hot paths:
//
//   - No goroutines are spawned per call. Helpers live in a shared pool and
//     block on a channel between jobs, so the per-call cost is a handful of
//     non-blocking channel sends.
//   - fn receives a dense worker index in [0, workers). Each participant
//     processes one item at a time, so worker-indexed scratch arenas need no
//     locking and are never touched by two items concurrently.
//
// Item assignment is dynamic (work-stealing off a shared atomic counter), so
// fn must derive its output purely from i, never from the worker index or
// arrival order; under that contract results are identical at any worker
// count. ForEachScratch returns only after every item has completed. With
// workers <= 1 or n <= 1 it degenerates to a serial loop on the caller with
// worker 0 and allocates nothing.
//
// Helpers never nest: fn may itself call ForEachScratch, which simply runs
// with the caller participating (and possibly serially) — the pool's
// non-blocking handoff means no configuration can deadlock.
func ForEachScratch(n, workers int, fn func(worker, i int)) int {
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return 0
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return 1
	}
	helpers := workers - 1
	if helpers > maxPoolHelpers {
		helpers = maxPoolHelpers
	}
	ensureHelpers(helpers)
	// A fresh job per call, never recycled: a helper that dequeues the
	// pointer late — after this call returned — must find a harmlessly
	// exhausted job, not one reused for different work.
	j := &poolJob{fn: fn, n: int32(n), seats: int32(workers)}
	j.wg.Add(n)
	for h := 0; h < helpers; h++ {
		select {
		case poolJobs <- j:
		default:
			// The queue is full of pending wake-ups for other jobs; those
			// helpers will drain this job's items just the same once free,
			// and the caller participates regardless.
			h = helpers
		}
	}
	j.participate()
	j.wg.Wait()
	joined := int(j.seat.Load())
	if joined > workers {
		joined = workers
	}
	return joined
}

// poolJob is one ForEachScratch invocation in flight.
type poolJob struct {
	fn    func(worker, i int)
	n     int32
	seats int32
	// next hands out item indices; seat hands out dense worker indices.
	next atomic.Int32
	seat atomic.Int32
	wg   sync.WaitGroup
}

// participate claims a worker seat and drains items until none remain. A
// latecomer that arrives after all seats are taken (or after the items ran
// out) returns without calling fn.
func (j *poolJob) participate() {
	seat := int(j.seat.Add(1)) - 1
	if seat >= int(j.seats) {
		return
	}
	for {
		i := int(j.next.Add(1)) - 1
		if i >= int(j.n) {
			return
		}
		j.fn(seat, i)
		j.wg.Done()
	}
}

// maxPoolHelpers bounds the persistent helper pool. Fan-outs request at most
// GOMAXPROCS-1 helpers, so the bound only guards against a pathological
// caller; it is far above any real machine width this simulator targets.
const maxPoolHelpers = 64

var (
	poolMu      sync.Mutex
	poolStarted atomic.Int32
	// poolJobs is deliberately buffered well past maxPoolHelpers so that
	// submitting wake-ups never blocks the hot path.
	poolJobs = make(chan *poolJob, 4*maxPoolHelpers)
)

// ensureHelpers lazily grows the persistent helper pool to at least n
// goroutines. Helpers are never torn down; an idle helper costs one blocked
// goroutine. poolStarted only ever grows, so the lock-free early return is
// safe: at worst a racing caller takes the mutex and finds nothing to do.
func ensureHelpers(n int) {
	if int(poolStarted.Load()) >= n {
		return
	}
	poolMu.Lock()
	for int(poolStarted.Load()) < n {
		go poolHelper()
		poolStarted.Add(1)
	}
	poolMu.Unlock()
}

func poolHelper() {
	for j := range poolJobs {
		j.participate()
	}
}
