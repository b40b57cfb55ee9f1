package proto

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestEngineRunsJobsAndAccounts(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()
	for i := 0; i < 5; i++ {
		err := e.Run(context.Background(), 1, func(context.Context) (JobReport, error) {
			return JobReport{Exchange: true, BitErrors: 2, BitsSent: 100, AirtimeS: 0.25}, nil
		})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Exchanges != 5 || st.Completed != 5 {
		t.Fatalf("exchanges/completed = %d/%d, want 5/5", st.Exchanges, st.Completed)
	}
	if st.BitErrors != 10 || st.BitsSent != 500 {
		t.Fatalf("bit totals = %d/%d, want 10/500", st.BitErrors, st.BitsSent)
	}
	if st.AirtimeS != 1.25 {
		t.Fatalf("airtime = %g, want 1.25", st.AirtimeS)
	}
	// Queue waits land in the obs histogram (the scheduler's only wait
	// accounting since the deprecated Stats mirror was removed).
	if got := e.obs.queueWait.Count(); got != 5 {
		t.Fatalf("queue-wait histogram holds %d entries, want 5", got)
	}
}

func TestEngineFailedJobCounted(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()
	boom := errors.New("boom")
	if err := e.Run(context.Background(), 1, func(context.Context) (JobReport, error) {
		return JobReport{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := e.Stats(); st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("failed/completed = %d/%d, want 1/0", st.Failed, st.Completed)
	}
}

func TestEngineCancelWhileQueued(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.Run(context.Background(), 1, func(context.Context) (JobReport, error) {
			close(started)
			<-gate
			return JobReport{}, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errc <- e.Run(ctx, 2, func(context.Context) (JobReport, error) {
			t.Error("cancelled job must not execute")
			return JobReport{}, nil
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	err := <-errc
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	close(gate)
	wg.Wait()
	if st := e.Stats(); st.Cancelled == 0 {
		t.Fatal("cancellation not counted")
	}

	// A context already dead when the slot is free: select may pick either
	// ready case, and the job must still not run.
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	for i := 0; i < 50; i++ {
		if err := e.Run(cancelled, 3, func(context.Context) (JobReport, error) {
			t.Error("job with a dead context must not execute")
			return JobReport{}, nil
		}); !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	}
}

// A cancellation that lands while the job is already executing must not be
// abandoned: Run returns the job's real result (this test fails under -race
// if Run returns early).
func TestEngineCancelDuringExecutionWaits(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	cancelled := make(chan struct{})
	go func() {
		<-started
		cancel()
		close(cancelled)
	}()
	result := 0
	err := e.Run(ctx, 1, func(jctx context.Context) (JobReport, error) {
		close(started)
		<-cancelled
		if jctx.Err() == nil {
			t.Error("job context must observe the cancellation")
		}
		result = 42
		return JobReport{}, nil
	})
	if err != nil {
		t.Fatalf("Run = %v, want nil: a started job's result must be delivered", err)
	}
	if result != 42 {
		t.Fatalf("result = %d, want 42", result)
	}
}

// The scheduler must hand jobs their effective context, so a JobTimeout
// deadline is visible inside the job (between packet phases).
func TestEngineJobSeesEffectiveDeadline(t *testing.T) {
	e := NewEngine(EngineConfig{JobTimeout: time.Minute})
	defer e.Close()
	err := e.Run(context.Background(), 1, func(jctx context.Context) (JobReport, error) {
		if _, ok := jctx.Deadline(); !ok {
			t.Error("job context has no deadline; JobTimeout not threaded through")
		}
		return JobReport{}, nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEngineJobTimeout(t *testing.T) {
	e := NewEngine(EngineConfig{JobTimeout: 20 * time.Millisecond})
	defer e.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.Run(context.Background(), 1, func(context.Context) (JobReport, error) {
			close(started)
			<-gate
			return JobReport{}, nil
		})
	}()
	<-started

	err := e.Run(context.Background(), 2, func(context.Context) (JobReport, error) {
		t.Error("timed-out job must not execute")
		return JobReport{}, nil
	})
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
	close(gate)
	wg.Wait()
}

func TestEngineClose(t *testing.T) {
	e := NewEngine(EngineConfig{})
	e.Close()
	e.Close() // idempotent
	err := e.Run(context.Background(), 1, func(context.Context) (JobReport, error) {
		t.Error("job must not run after Close")
		return JobReport{}, nil
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestEngineConcurrentSubmitters(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()
	var executing, max int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(key int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				err := e.Run(context.Background(), key, func(context.Context) (JobReport, error) {
					mu.Lock()
					executing++
					if executing > max {
						max = executing
					}
					mu.Unlock()
					time.Sleep(100 * time.Microsecond) // widen the overlap window
					mu.Lock()
					executing--
					mu.Unlock()
					return JobReport{Exchange: true}, nil
				})
				if err != nil {
					t.Errorf("key %d: %v", key, err)
					return
				}
			}
		}(g + 1)
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("observed %d jobs on the channel at once; SDM allows 1", max)
	}
	if st := e.Stats(); st.Exchanges != 80 {
		t.Fatalf("exchanges = %d, want 80", st.Exchanges)
	}
}

// Close while one job runs and another waits for the slot: the running
// job's result is delivered, the waiter fails with ErrClosed without
// running, and Close returns only once the running job has ended.
func TestEngineCloseWhileRunning(t *testing.T) {
	e := NewEngine(EngineConfig{})
	gate := make(chan struct{})
	started := make(chan struct{})
	result := 0
	runErr := make(chan error, 1)
	go func() {
		runErr <- e.Run(context.Background(), 1, func(context.Context) (JobReport, error) {
			close(started)
			<-gate
			result = 42
			return JobReport{}, nil
		})
	}()
	<-started
	waitErr := make(chan error, 1)
	go func() {
		waitErr <- e.Run(context.Background(), 2, func(context.Context) (JobReport, error) {
			t.Error("waiting job must not run after Close")
			return JobReport{}, nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on the slot
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	if err := <-waitErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter err = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(10 * time.Millisecond):
	}
	close(gate)
	if err := <-runErr; err != nil || result != 42 {
		t.Fatalf("running job = (%v, %d), want (nil, 42)", err, result)
	}
	<-closed
	if err := e.Run(context.Background(), 3, func(context.Context) (JobReport, error) {
		t.Error("job must not run after Close")
		return JobReport{}, nil
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("later err = %v, want ErrClosed", err)
	}

	// Close's window: quit is closed but Close has not yet taken the free
	// slot, so a caller sees both ready and select may pick the slot. The
	// caller must still fail with ErrClosed.
	for i := 0; i < 50; i++ {
		e := NewEngine(EngineConfig{})
		close(e.quit)
		if err := e.Run(context.Background(), 1, func(context.Context) (JobReport, error) {
			t.Error("job ran with the scheduler closing")
			return JobReport{}, nil
		}); !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	}
}

// A job that panics, with the panic recovered by the caller (as net/http
// does for a handler), must give back the slot, the admission and the
// OnGrant bracket, so the next job still runs.
func TestEngineJobPanicReleases(t *testing.T) {
	var admits, admitReleases, grants, grantReleases int
	e := NewEngine(EngineConfig{
		JobTimeout: time.Second,
		Admit: func() func() {
			admits++
			return func() { admitReleases++ }
		},
		OnGrant: func() func() {
			grants++
			return func() { grantReleases++ }
		},
	})
	// The timeout and no deferred Close: with the slot leaked, the next Run
	// fails instead of blocking, and Close would wait forever.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the caller")
			}
		}()
		_ = e.Run(context.Background(), 1, func(context.Context) (JobReport, error) {
			panic("job fault")
		})
	}()
	if admitReleases != 1 || grantReleases != 1 {
		t.Fatalf("after the panic: admit released %d, grant released %d; want 1 and 1", admitReleases, grantReleases)
	}
	ran := false
	if err := e.Run(context.Background(), 1, func(context.Context) (JobReport, error) {
		ran = true
		return JobReport{}, nil
	}); err != nil || !ran {
		t.Fatalf("next job = (%v, ran %v), want (nil, true): the slot was not given back", err, ran)
	}
	if admits != 2 || admitReleases != 2 || grants != 2 || grantReleases != 2 {
		t.Fatalf("admit %d/%d, grant %d/%d; want every bracket opened and closed twice",
			admits, admitReleases, grants, grantReleases)
	}
}
