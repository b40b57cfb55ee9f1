package capture

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/ap"
	"repro/internal/rfsim"
	"repro/internal/waveform"
)

func newPlane(t *testing.T) *Plane {
	t.Helper()
	return NewPlane(ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene()))
}

func locRequest(p *Plane, nChirps int) Request {
	return Request{
		Chirp:   p.AP().Config().LocalizationChirp,
		NChirps: nChirps,
		Targets: []*ap.BackscatterTarget{ap.ConstantGainTarget(rfsim.Point{X: 3}, 5, 25)},
	}
}

func TestPoolGetReturnsZeroedRecycledBuffer(t *testing.T) {
	p := NewPool()
	buf := p.GetComplex(64)
	for i := range buf {
		buf[i] = complex(float64(i), 1)
	}
	p.PutComplex(buf)
	got := p.GetComplex(64)
	if &got[0] != &buf[0] {
		t.Fatal("expected the recycled buffer back from the same size class")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	// A different size class must not satisfy the request.
	other := p.GetComplex(65)
	if len(other) != 65 {
		t.Fatalf("len = %d, want 65", len(other))
	}
}

func TestPoolNilAndZeroSafe(t *testing.T) {
	var p *Pool
	if got := p.GetComplex(8); len(got) != 8 {
		t.Fatalf("nil pool Get: len = %d", len(got))
	}
	p.PutComplex(make([]complex128, 8)) // must not panic
	np := NewPool()
	if got := np.GetComplex(0); len(got) != 0 {
		t.Fatalf("zero-length Get: len = %d", len(got))
	}
	np.PutComplex(nil) // must not panic
}

func TestPoolClassCapBoundsRetention(t *testing.T) {
	p := NewPool()
	bufs := make([][]complex128, classCap+10)
	for i := range bufs {
		bufs[i] = make([]complex128, 16)
		p.PutComplex(bufs[i])
	}
	if got := p.retainedComplex(16); got != classCap {
		t.Fatalf("retained %d buffers, cap is %d", got, classCap)
	}
}

func TestPoolShardedRecyclingUnderConcurrency(t *testing.T) {
	// Hammer the pool from several goroutines: every Get must come back
	// zeroed and exactly sized no matter which shard satisfied it, and the
	// retention cap must hold across shards afterwards.
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 4*poolShards; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				buf := p.GetComplex(32)
				if len(buf) != 32 {
					t.Errorf("len = %d, want 32", len(buf))
					return
				}
				for j, v := range buf {
					if v != 0 {
						t.Errorf("recycled buffer not zeroed at %d: %v", j, v)
						return
					}
				}
				buf[0] = complex(float64(i), 1) // dirty it before release
				p.PutComplex(buf)
				f := p.GetFloat64(16)
				f[0] = 1
				p.PutFloat64(f)
			}
		}()
	}
	wg.Wait()
	if got := p.retainedComplex(32); got > classCap {
		t.Fatalf("retained %d buffers, cap is %d", got, classCap)
	}
}

func TestCaptureReleaseIdempotentAndNilsFrames(t *testing.T) {
	p := newPlane(t)
	lease := p.Acquire(0, 1)
	defer lease.Close()
	capt, err := lease.Chirps(locRequest(p, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(capt.Frames) != 3 {
		t.Fatalf("frames = %d", len(capt.Frames))
	}
	capt.Release()
	for k := range capt.Frames {
		for m := range capt.Frames[k].Rx {
			if capt.Frames[k].Rx[m] != nil {
				t.Fatalf("frame %d rx %d not nilled after Release", k, m)
			}
		}
	}
	capt.Release() // idempotent: must not double-Put or panic
	var nilCap *Capture
	nilCap.Release() // nil-safe
}

func TestLeaseCloseReleasesHeldCaptures(t *testing.T) {
	p := newPlane(t)
	lease := p.Acquire(0, 2)
	c1, err := lease.Chirps(locRequest(p, 2))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := lease.Chirps(locRequest(p, 2))
	if err != nil {
		t.Fatal(err)
	}
	lease.Close()
	for _, c := range []*Capture{c1, c2} {
		if !c.released {
			t.Fatal("Close did not release a held capture")
		}
	}
	lease.Close() // idempotent
}

func TestChirpsInvalidRequestReturnsError(t *testing.T) {
	p := newPlane(t)
	lease := p.Acquire(0, 3)
	defer lease.Close()
	if _, err := lease.Chirps(Request{Chirp: waveform.Chirp{}, NChirps: 3}); !errors.Is(err, ap.ErrInvalidConfig) {
		t.Fatalf("invalid chirp: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := lease.Chirps(Request{Chirp: p.AP().Config().LocalizationChirp, NChirps: 0}); !errors.Is(err, ap.ErrInvalidConfig) {
		t.Fatalf("zero chirps: err = %v, want ErrInvalidConfig", err)
	}
	if len(lease.captures) != 0 {
		t.Fatalf("failed requests must not be tracked, got %d captures", len(lease.captures))
	}
}

func TestJobLeaseReclaimsLeakedLeases(t *testing.T) {
	p := newPlane(t)
	job := p.BeginJob()
	leaked := p.Acquire(0, 4)
	capt, err := leaked.Chirps(locRequest(p, 2))
	if err != nil {
		t.Fatal(err)
	}
	// The operation "forgets" to Close; the grant boundary reclaims it.
	job.End()
	if !leaked.closed {
		t.Fatal("job end did not close the leaked lease")
	}
	if !capt.released {
		t.Fatal("job end did not release the leaked capture")
	}
	if p.job != nil {
		t.Fatal("ended job still active on the plane")
	}
	job.End() // idempotent
}

func TestJobLeaseStacksAndClosedLeasesDetach(t *testing.T) {
	p := newPlane(t)
	outer := p.BeginJob()
	inner := p.BeginJob()
	l1 := p.Acquire(0, 5) // registered under inner
	l1.Close()            // explicit close detaches from the job list
	if len(inner.open) != 0 {
		t.Fatalf("closed lease still registered: %d open", len(inner.open))
	}
	l2 := p.Acquire(0, 6)
	inner.End()
	if !l2.closed {
		t.Fatal("inner job end did not reclaim its lease")
	}
	if p.job != outer {
		t.Fatal("inner End did not restore the outer job")
	}
	outer.End()
	if p.job != nil {
		t.Fatal("outer End left a job active")
	}
}

// TestPooledCaptureBitIdenticalToNoPool pins the pooled plane against the
// allocate-everything oracle: a bare ap.AP, which has no buffer pool.
func TestPooledCaptureBitIdenticalToNoPool(t *testing.T) {
	pooled := newPlane(t)
	plain := ap.MustNew(ap.DefaultConfig(), rfsim.DefaultIndoorScene())
	for seed := int64(1); seed <= 3; seed++ {
		// Two rounds each so the pooled plane actually recycles buffers.
		for round := 0; round < 2; round++ {
			lp := pooled.Acquire(0.1, seed)
			cp, err := lp.Chirps(locRequest(pooled, 4))
			if err != nil {
				t.Fatal(err)
			}
			req := locRequest(pooled, 4)
			plain.Steer(0.1)
			want, err := plain.SynthesizeChirps(req.Chirp, req.NChirps, req.Targets, req.Table, req.Extra, rfsim.NewNoiseSource(seed))
			if err != nil {
				t.Fatal(err)
			}
			for k := range cp.Frames {
				for m := range cp.Frames[k].Rx {
					for i := range cp.Frames[k].Rx[m] {
						if cp.Frames[k].Rx[m][i] != want[k].Rx[m][i] {
							t.Fatalf("seed %d round %d chirp %d rx %d sample %d: pooled %v != plain %v",
								seed, round, k, m, i, cp.Frames[k].Rx[m][i], want[k].Rx[m][i])
						}
					}
				}
			}
			lp.Close()
		}
	}
}
