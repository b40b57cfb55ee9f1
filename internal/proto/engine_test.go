package proto

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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

// TestEngineCancelWhileQueued pins that a job whose context ends while it
// waits for the slot (held here by a job of key 0) fails with ErrCancelled
// and never runs.
func TestEngineCancelWhileQueued(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.Run(context.Background(), 0, func(context.Context) (JobReport, error) {
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

// TestEngineJobTimeout pins that JobTimeout ends the wait for the slot
// (held here by a job of key 0) with ErrCancelled.
func TestEngineJobTimeout(t *testing.T) {
	e := NewEngine(EngineConfig{JobTimeout: 20 * time.Millisecond})
	defer e.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = e.Run(context.Background(), 0, func(context.Context) (JobReport, error) {
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

// TestEngineConcurrentSubmitters pins that jobs of key 0 (sweeps, scene
// edits) run alone: many goroutines submitting them never see two on the
// AP at once.
func TestEngineConcurrentSubmitters(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()
	var executing, max int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				err := e.Run(context.Background(), 0, func(context.Context) (JobReport, error) {
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
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("observed %d jobs of key 0 on the AP at once; they run alone", max)
	}
	if st := e.Stats(); st.Exchanges != 80 {
		t.Fatalf("exchanges = %d, want 80", st.Exchanges)
	}
}

// gatedJob starts a job of the given key on e in its own goroutine and
// returns once the job is inside fn; the job stays there until release is
// closed, and its Run error arrives on done.
func gatedJob(t *testing.T, e *Engine, key int, release <-chan struct{}) (done <-chan error) {
	t.Helper()
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- e.Run(context.Background(), key, func(context.Context) (JobReport, error) {
			close(started)
			<-release
			return JobReport{}, nil
		})
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatalf("job of key %d never started", key)
	}
	return errc
}

// TestEngineNodeJobsOverlap pins that node jobs compute side by side: a
// second node job starts while the first is still inside fn.
func TestEngineNodeJobsOverlap(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()
	release := make(chan struct{})
	first := gatedJob(t, e, 1, release)
	second := gatedJob(t, e, 2, release) // fails the test unless it starts now
	close(release)
	for _, done := range []<-chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineKeyZeroRunsAlone pins that a job of key 0 waits for the
// running node jobs and that no job runs while it does.
func TestEngineKeyZeroRunsAlone(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()
	var running atomic.Int32
	node := func(context.Context) (JobReport, error) {
		running.Add(1)
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return JobReport{}, nil
	}
	release := make(chan struct{})
	held := gatedJob(t, e, 1, release)
	running.Add(1) // the held job counts as running until it is released
	sweepDone := make(chan error, 1)
	go func() {
		sweepDone <- e.Run(context.Background(), 0, func(context.Context) (JobReport, error) {
			if n := running.Load(); n != 0 {
				t.Errorf("job of key 0 started with %d node jobs running", n)
			}
			time.Sleep(5 * time.Millisecond)
			if n := running.Load(); n != 0 {
				t.Errorf("%d node jobs ran inside the job of key 0", n)
			}
			return JobReport{}, nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // the sweep waits for the held job
	var wg sync.WaitGroup
	for key := 2; key < 6; key++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Run(context.Background(), key, node); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-sweepDone:
		t.Fatalf("job of key 0 finished (%v) while a node job was still running", err)
	default:
	}
	running.Add(-1)
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := <-sweepDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestEngineKeyZeroRefusedAfterWait pins that a job of key 0 whose caller
// gives up, or whose engine starts closing, while it waits for a running
// node job never runs: it fails with ErrCancelled wrapping the context
// error, or with ErrClosed, once the node job ends.
func TestEngineKeyZeroRefusedAfterWait(t *testing.T) {
	for _, closing := range []bool{false, true} {
		e := NewEngine(EngineConfig{})
		release := make(chan struct{})
		held := gatedJob(t, e, 1, release)
		ctx, cancel := context.WithCancel(context.Background())
		swept := make(chan error, 1)
		go func() {
			swept <- e.Run(ctx, 0, func(context.Context) (JobReport, error) {
				t.Error("job of key 0 ran after its wait was abandoned")
				return JobReport{}, nil
			})
		}()
		// Once the key-0 job holds the slot no node job is granted: probe
		// with short deadlines until one times out waiting.
		for {
			pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			err := e.Run(pctx, 2, func(context.Context) (JobReport, error) { return JobReport{}, nil })
			pcancel()
			if errors.Is(err, ErrCancelled) {
				break
			}
			if err != nil {
				t.Fatalf("probe: %v", err)
			}
		}
		closed := make(chan struct{})
		if closing {
			go func() { e.Close(); close(closed) }()
			time.Sleep(10 * time.Millisecond) // Close has closed quit and waits for the slot
		} else {
			cancel()
		}
		close(release)
		if err := <-held; err != nil {
			t.Fatal(err)
		}
		err := <-swept
		switch {
		case closing && !errors.Is(err, ErrClosed):
			t.Fatalf("closing: err = %v, want ErrClosed", err)
		case !closing && (!errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled)):
			t.Fatalf("cancelled: err = %v, want ErrCancelled wrapping context.Canceled", err)
		}
		if closing {
			<-closed
		} else {
			e.Close()
		}
		cancel()
	}
}

// TestEngineNodeJobWaitsBehindKeyZero pins the grant order: a node job that
// arrives after a job of key 0 is waiting runs after it, although the AP
// is free for node jobs until the key-0 job takes it.
func TestEngineNodeJobWaitsBehindKeyZero(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()
	var order []string
	var mu sync.Mutex
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	release := make(chan struct{})
	held := gatedJob(t, e, 1, release)
	done := make(chan error, 2)
	go func() {
		done <- e.Run(context.Background(), 0, func(context.Context) (JobReport, error) {
			note("sweep")
			return JobReport{}, nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // the sweep waits for the held job
	go func() {
		done <- e.Run(context.Background(), 2, func(context.Context) (JobReport, error) {
			note("node")
			return JobReport{}, nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // the node job waits behind the sweep
	mu.Lock()
	early := len(order)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("ran %v while the first node job held the AP", order)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "sweep" {
		t.Fatalf("order %v, want the sweep before the later node job", order)
	}
}

// Close while jobs run and another waits for the slot: the running jobs'
// results are delivered, the waiter fails with ErrClosed without running,
// and Close returns only once every running job has ended. A job of key 0
// holds the slot in the first case; two node jobs run side by side in the
// second.
func TestEngineCloseWhileRunning(t *testing.T) {
	e := NewEngine(EngineConfig{})
	gate := make(chan struct{})
	started := make(chan struct{})
	result := 0
	runErr := make(chan error, 1)
	go func() {
		runErr <- e.Run(context.Background(), 0, func(context.Context) (JobReport, error) {
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

	// Two node jobs on the AP: Close waits for both.
	e = NewEngine(EngineConfig{})
	release := make(chan struct{})
	first := gatedJob(t, e, 1, release)
	second := gatedJob(t, e, 2, release)
	closed = make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while node jobs were still running")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	for _, done := range []<-chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatalf("running node job: %v", err)
		}
	}
	<-closed

	// Close's window: quit is closed but Close has not yet taken the free
	// slot, so a caller sees both ready and select may pick the slot. The
	// caller must still fail with ErrClosed.
	for i := 0; i < 50; i++ {
		for _, key := range []int{0, 1} {
			e := NewEngine(EngineConfig{})
			close(e.quit)
			if err := e.Run(context.Background(), key, func(context.Context) (JobReport, error) {
				t.Error("job ran with the scheduler closing")
				return JobReport{}, nil
			}); !errors.Is(err, ErrClosed) {
				t.Fatalf("key %d: err = %v, want ErrClosed", key, err)
			}
		}
	}
}

// A job that panics, with the panic recovered by the caller (as net/http
// does for a handler), must give back the slot and its share of the AP,
// so later node jobs and jobs of key 0 still run. So must a job whose
// commit panics (here from OnAirtime).
func TestEngineJobPanicReleases(t *testing.T) {
	e := NewEngine(EngineConfig{
		JobTimeout: time.Second,
		OnAirtime:  func(float64) { panic("clock fault") },
	})
	// The timeout and no deferred Close: with the slot or the AP leaked,
	// the next Run fails or the key-0 job blocks instead of the test
	// passing, and Close would wait forever.
	run := func(key int, fn func(context.Context) (JobReport, error)) (err error, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return e.Run(context.Background(), key, fn), false
	}
	for _, key := range []int{1, 0} {
		if _, panicked := run(key, func(context.Context) (JobReport, error) {
			panic("job fault")
		}); !panicked {
			t.Errorf("key %d: panic did not propagate to the caller", key)
		}
		if _, panicked := run(key, func(context.Context) (JobReport, error) {
			return JobReport{AirtimeS: 1}, nil
		}); !panicked {
			t.Errorf("key %d: commit panic did not propagate to the caller", key)
		}
	}
	for _, key := range []int{1, 0} {
		ran := false
		done := make(chan error, 1)
		go func() {
			done <- e.Run(context.Background(), key, func(context.Context) (JobReport, error) {
				ran = true
				return JobReport{}, nil
			})
		}()
		select {
		case err := <-done:
			if err != nil || !ran {
				t.Fatalf("key %d after the panics = (%v, ran %v), want (nil, true)", key, err, ran)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("key %d after the panics never ran: the AP was not given back", key)
		}
	}
}
