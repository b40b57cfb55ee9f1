package loadgen

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// TestPercentileGolden pins the nearest-rank definition against hand-computed
// values on a known sample set.
func TestPercentileGolden(t *testing.T) {
	// 10 samples, shuffled on purpose: sorted = 1..10 ms.
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	samples := []time.Duration{ms(7), ms(2), ms(10), ms(4), ms(1), ms(9), ms(3), ms(6), ms(8), ms(5)}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, ms(1)},    // minimum
		{10, ms(1)},   // ceil(0.1*10)=1st
		{50, ms(5)},   // ceil(0.5*10)=5th
		{90, ms(9)},   // ceil(0.9*10)=9th
		{95, ms(10)},  // ceil(0.95*10)=10th
		{99, ms(10)},  // ceil(0.99*10)=10th
		{100, ms(10)}, // maximum
	}
	for _, c := range cases {
		if got := Percentile(samples, c.p); got != c.want {
			t.Errorf("Percentile(p=%g) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input order untouched (Percentile sorts a copy).
	if samples[0] != ms(7) || samples[9] != ms(5) {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileSingleSample(t *testing.T) {
	samples := []time.Duration{42 * time.Microsecond}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := Percentile(samples, p); got != samples[0] {
			t.Errorf("single sample: Percentile(p=%g) = %v, want %v", p, got, samples[0])
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	for _, p := range []float64{0, 50, 99} {
		if got := Percentile(nil, p); got != 0 {
			t.Errorf("empty: Percentile(p=%g) = %v, want 0", p, got)
		}
	}
	s := Summarize(nil)
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.Mean != 0 || s.Max != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeGolden(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	s := Summarize([]time.Duration{ms(3), ms(1), ms(2), ms(10)})
	if s.Count != 4 || s.P50 != ms(2) || s.P95 != ms(10) || s.P99 != ms(10) ||
		s.Mean != ms(4) || s.Max != ms(10) {
		t.Errorf("Summarize = %+v", s)
	}
}

// TestPoissonDeterminism: a fixed seed reproduces the exact inter-arrival
// sequence, and a different seed does not.
func TestPoissonDeterminism(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		arr := NewArrivals(NewRNG(seed), 100)
		out := make([]time.Duration, 50)
		for i := range out {
			out[i] = arr.Next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs under same seed: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival schedules")
	}
	// Offsets are strictly increasing and the mean gap is near 1/qps.
	last := time.Duration(-1)
	for i, at := range a {
		if at <= last {
			t.Fatalf("arrival %d not increasing: %v after %v", i, at, last)
		}
		last = at
	}
	meanGap := a[len(a)-1].Seconds() / float64(len(a))
	if meanGap < 1.0/400 || meanGap > 4.0/100 {
		t.Errorf("mean inter-arrival %.4fs wildly off 1/qps=0.01s", meanGap)
	}
}

// TestScheduleDeterminism: the full op schedule (times, kinds, targets) is a
// pure function of the seed.
func TestScheduleDeterminism(t *testing.T) {
	r := &Runner{Seed: 11, Nodes: 8, Mix: DefaultMix()}
	a := r.Schedule(200, time.Second)
	b := r.Schedule(200, time.Second)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i, o := range a {
		if o.node < 0 || o.node >= 8 {
			t.Fatalf("op %d targets node %d outside [0,8)", i, o.node)
		}
	}
}

func TestMixParseAndPick(t *testing.T) {
	m, err := ParseMix("localize=0.5,send=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if m.Pick(0.0) != OpLocalize || m.Pick(0.49) != OpLocalize {
		t.Error("low draws should pick localize")
	}
	if m.Pick(0.5) != OpSend || m.Pick(0.999) != OpSend {
		t.Error("high draws should pick send")
	}
	// Un-normalized fractions normalize.
	m2, err := ParseMix("localize=3,move=1")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Pick(0.74) != OpLocalize || m2.Pick(0.76) != OpMove {
		t.Error("3:1 mix should split at 0.75")
	}
	// The fractions' rounded cumulative sum can stop short of 1; the
	// highest draw must still land on a kind the mix contains.
	m3, err := ParseMix("localize=6,send=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if got := m3.Pick(math.Nextafter(1, 0)); got != OpSend {
		t.Errorf("highest draw picked %v, want send", got)
	}
	for _, bad := range []string{
		"", "localize=0", "warp=1", "send", "send=-1",
		// Non-finite fractions, and finite ones whose total overflows.
		"localize=NaN", "localize=Inf,send=1", "send=1e308,move=1e308",
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
	// Empirical mix over the seeded stream tracks the fractions.
	rng := NewRNG(3)
	mix := DefaultMix()
	var counts [numOps]int
	const n = 20000
	for i := 0; i < n; i++ {
		counts[mix.Pick(rng.Float64())]++
	}
	if frac := float64(counts[OpLocalize]) / n; math.Abs(frac-0.6) > 0.02 {
		t.Errorf("localize fraction %.3f, want ~0.6", frac)
	}
	if frac := float64(counts[OpMove]) / n; math.Abs(frac-0.1) > 0.01 {
		t.Errorf("move fraction %.3f, want ~0.1", frac)
	}
}

// TestOpenLoop drives a fast stub and checks accounting: ops counted,
// errors split out of goodput, latencies populated.
func TestOpenLoop(t *testing.T) {
	var calls, fails atomic.Uint64
	r := &Runner{
		Seed:  5,
		Nodes: 4,
		Do: func(ctx context.Context, kind OpKind, nodeIdx int) error {
			n := calls.Add(1)
			if n%10 == 0 {
				fails.Add(1)
				return errors.New("injected")
			}
			return nil
		},
	}
	res, err := r.Open(context.Background(), 500, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" || res.OfferedQPS != 500 {
		t.Errorf("result header %+v", res)
	}
	if res.Ops != calls.Load() {
		t.Errorf("Ops = %d, want %d", res.Ops, calls.Load())
	}
	if res.Errors != fails.Load() {
		t.Errorf("Errors = %d, want %d", res.Errors, fails.Load())
	}
	if res.Latency.Count != int(res.Ops-res.Errors) {
		t.Errorf("latency count %d, want %d successes", res.Latency.Count, res.Ops-res.Errors)
	}
	if res.GoodputQPS <= 0 || res.GoodputQPS >= res.AchievedQPS {
		t.Errorf("goodput %.1f vs achieved %.1f: goodput must be positive and below achieved (errors injected)",
			res.GoodputQPS, res.AchievedQPS)
	}
	if got := res.ErrorRate(); math.Abs(got-0.1) > 0.05 {
		t.Errorf("error rate %.3f, want ~0.1", got)
	}
	var perOpTotal uint64
	for _, c := range res.PerOp {
		perOpTotal += c
	}
	if perOpTotal != res.Ops {
		t.Errorf("per-op counts sum to %d, want %d", perOpTotal, res.Ops)
	}
}

// TestOpenLoopChargesQueueing: a slow executor under an offered rate beyond
// its capacity must show tail latency well above service time — the open
// loop charges waiting from the intended arrival, it does not throttle.
func TestOpenLoopChargesQueueing(t *testing.T) {
	const service = 20 * time.Millisecond
	r := &Runner{
		Seed:        9,
		MaxInFlight: 1, // capacity = 50 QPS
		Do: func(ctx context.Context, kind OpKind, nodeIdx int) error {
			time.Sleep(service)
			return nil
		},
	}
	// Offer 4x capacity for a short burst.
	res, err := r.Open(context.Background(), 200, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count == 0 {
		t.Fatal("no samples")
	}
	if res.Latency.P99 < 3*service {
		t.Errorf("p99 %v under 4x overload should exceed 3x service time %v (queueing not charged?)",
			res.Latency.P99, service)
	}
}

func TestClosedLoop(t *testing.T) {
	var calls atomic.Uint64
	r := &Runner{
		Seed: 6,
		Do: func(ctx context.Context, kind OpKind, nodeIdx int) error {
			calls.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		},
	}
	res, err := r.Closed(context.Background(), 2, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" || res.Workers != 2 {
		t.Errorf("result header %+v", res)
	}
	if res.Ops == 0 || res.Errors != 0 {
		t.Errorf("ops=%d errors=%d", res.Ops, res.Errors)
	}
	if res.Latency.P50 < time.Millisecond/2 {
		t.Errorf("p50 %v below service time", res.Latency.P50)
	}
}

func TestRunnerValidation(t *testing.T) {
	r := &Runner{}
	if _, err := r.Open(context.Background(), 10, time.Second); err == nil {
		t.Error("nil Do must fail")
	}
	r.Do = func(context.Context, OpKind, int) error { return nil }
	if _, err := r.Open(context.Background(), 0, time.Second); err == nil {
		t.Error("zero qps must fail")
	}
	if _, err := r.Closed(context.Background(), 0, time.Second); err == nil {
		t.Error("zero workers must fail")
	}
}
