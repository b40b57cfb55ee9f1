package core

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Clock is the deployment's simulation time in seconds. It advances only
// when simulated airtime is spent (the scheduler folds each job's AirtimeS
// into it) or when the facade advances it explicitly — wall-clock never
// leaks in, so a run is reproducible regardless of host speed. Reads and
// advances are atomic: every AP of a cluster shares one clock, and jobs on
// different APs advance it concurrently from their callers' goroutines.
type Clock struct {
	bits atomic.Uint64
}

// NewClock returns a clock at t = 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulation time in seconds.
func (c *Clock) Now() float64 { return math.Float64frombits(c.bits.Load()) }

// Advance moves the clock forward by dt seconds and returns the new time.
// It panics on a negative or non-finite dt, and on a dt whose sum with the
// current time overflows to +Inf, leaving the clock unchanged: simulation
// time never rewinds and stays finite.
func (c *Clock) Advance(dt float64) float64 {
	if dt < 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		panic(fmt.Sprintf("core: clock advance must be finite and >= 0, got %g", dt))
	}
	for {
		old := c.bits.Load()
		now := math.Float64frombits(old) + dt
		if math.IsInf(now, 0) {
			panic(fmt.Sprintf("core: clock advance by %g at %g s overflows", dt, math.Float64frombits(old)))
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(now)) {
			return now
		}
	}
}
