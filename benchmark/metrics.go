package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/milback"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the served AP sees; the untraced run
// reports them. BENCHMARK.json declares the same names and units, with
// their bounds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
	{"loc_err_p50_cm", "cm"},
}

// tailMetric is the open-loop p99. The untraced run prints it and writes
// it to -out files, but BENCHMARK.json leaves it out and the closing JSON
// line omits it: on a 2-vCPU host its spread across seeds ran 16–43 %,
// wider than any bound the benchmark may set.
var tailMetric = metricDef{"p99_ms", "ms"}

// perLayerMetrics attribute the end-to-end numbers to the modules; the
// traced run reports them. Times named *_ms without a stage are per
// successful op; README.md gives each one's definition.
var perLayerMetrics = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.trace_overhead_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.ready_s", "s"},
	{"milback.call_ms", "ms"},
	{"milback.self_ms", "ms"},
	{"milback.handoffs_per_op", "1/op"},
	{"milback.join_s", "s"},
	{"milback.discover_s", "s"},
	{"proto.queue_wait_ms", "ms"},
	{"proto.job_ms", "ms"},
	{"proto.jobs_per_op", "1/op"},
	{"proto.busy_frac", "ratio"},
	{"capture.lease_ms", "ms"},
	{"capture.captures_per_op", "1/op"},
	{"capture.pool_hit_ratio", "ratio"},
	{"capture.clutter_hit_ratio", "ratio"},
	{"ap.synth_ms", "ms"},
	{"ap.synth_clutter_ms", "ms"},
	{"ap.synth_targets_ms", "ms"},
	{"ap.synth_noise_ms", "ms"},
	{"ap.fft_ms", "ms"},
	{"ap.detect_ms", "ms"},
	{"core.comm_ms", "ms"},
	{"dsp.fft_batch_ms", "ms"},
	{"dsp.batches_per_capture", "1/capture"},
	{"parallel.workers_mean", "workers"},
}

// measure is one metric value with the number of samples behind it.
type measure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one workload run's outcome. Attempted counts every op sent,
// warm-up and replays included; Failed those that returned a non-2xx
// status or failed a correctness check.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`

	ops       []*op
	snapshots []snapshot
}

// snapshot is a /v1/metrics reading at a phase boundary.
type snapshot struct {
	at      string
	t       time.Duration
	metrics milback.ClusterMetrics
}

func newResult(workload string) *result {
	return &result{Workload: workload, Correct: true, Metrics: map[string]measure{}}
}

// add counts the ops of finished phases.
func (r *result) add(phases ...[]*op) {
	for _, ops := range phases {
		for _, o := range ops {
			r.ops = append(r.ops, o)
			r.Attempted++
			if o.err != nil {
				r.Failed++
				r.Correct = false
			}
		}
	}
}

func (r *result) snapshot(at string, t time.Duration, m milback.ClusterMetrics) {
	r.snapshots = append(r.snapshots, snapshot{at, t, m})
}

// set records a metric; its unit comes from the metric tables.
func (r *result) set(name string, v float64, samples int) {
	for _, d := range append(append([]metricDef{tailMetric}, endToEndMetrics...), perLayerMetrics...) {
		if d.name == name {
			r.Metrics[name] = measure{Value: v, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("benchmark: metric " + name + " is in no metric table")
}

// endToEnd computes the end-to-end metrics of an untraced run, each over
// all of its rounds: latency over every open-loop slice, throughput over
// every closed-loop slice, CPU per op over the open-loop slices.
func (r *result) endToEnd(setups []setupTimes, rounds []round) {
	r.set("setup_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.total }), len(setups))
	var open []*op
	var errs []float64
	done, ok := 0, 0
	var closedS, cpuS float64
	for _, rd := range rounds {
		open = append(open, rd.open...)
		ok += succeeded(rd.open)
		cpuS += rd.cpuS
		for _, o := range rd.closed {
			if o.err == nil && o.done <= rd.closedEnd {
				done++
			}
		}
		closedS += rd.closedLen.Seconds()
		for _, ops := range [][]*op{rd.open, rd.closed} {
			for _, o := range ops {
				if !math.IsNaN(o.fixErrM) {
					errs = append(errs, 100*o.fixErrM)
				}
			}
		}
	}
	lat := latencies(open)
	r.set("p50_ms", ms(loadgen.Percentile(lat, 50)), len(lat))
	r.set("p99_ms", ms(loadgen.Percentile(lat, 99)), len(lat))
	r.set("throughput_ops_s", ratio(float64(done), closedS), done)
	r.set("cpu_ms_per_op", ratio(1000*cpuS, float64(ok)), ok)
	r.set("loc_err_p50_cm", median(errs), len(errs))
}

// perLayer computes the per-layer metrics of a traced run: set-up splits,
// generator health, per-op costs over the traced open phase from the
// server's metrics, and the depth breakdown from the replays.
func (r *result) perLayer(setups []setupTimes, plain, traced []*op, late []time.Duration, before, after milback.ClusterMetrics, wall time.Duration, reps []*replay) {
	r.set("loadgen.late_p99_ms", ms(loadgen.Percentile(late, 99)), len(late))
	r.set("loadgen.trace_overhead_ms",
		ms(loadgen.Percentile(latencies(traced), 50))-ms(loadgen.Percentile(latencies(plain), 50)), len(traced))
	r.set("serve.ready_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.ready }), len(setups))
	r.set("milback.join_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.join }), len(setups))
	r.set("milback.discover_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.discover }), len(setups))

	n := succeeded(traced)
	ok := float64(n)
	perOpMS := func(h hsum) float64 { return ratio(1000*h.sum, ok) }
	var d apTotals
	d.add(after, 1)
	d.add(before, -1)
	r.set("proto.queue_wait_ms", perOpMS(d.queueWait), n)
	r.set("proto.job_ms", perOpMS(d.job), n)
	r.set("proto.jobs_per_op", ratio(d.job.count, ok), n)
	busiest := 0.0
	for i := range after.PerAP {
		busy := after.PerAP[i].Metrics.JobDuration.Sum - before.PerAP[i].Metrics.JobDuration.Sum
		busiest = max(busiest, busy/wall.Seconds())
	}
	r.set("proto.busy_frac", busiest, n)
	r.set("milback.handoffs_per_op", ratio(float64(after.Handoffs-before.Handoffs), ok), n)
	r.set("capture.lease_ms", perOpMS(d.lease), n)
	r.set("capture.captures_per_op", ratio(d.captures, ok), n)
	r.set("capture.pool_hit_ratio", ratio(d.poolHits, d.poolHits+d.poolMisses), int(d.poolHits+d.poolMisses))
	r.set("capture.clutter_hit_ratio", ratio(d.clutterHits, d.clutterHits+d.clutterMisses), int(d.clutterHits+d.clutterMisses))
	r.set("ap.synth_ms", perOpMS(d.synth), n)
	r.set("ap.synth_clutter_ms", perOpMS(d.synthClutter), n)
	r.set("ap.synth_targets_ms", perOpMS(d.synthTargets), n)
	r.set("ap.synth_noise_ms", perOpMS(d.synthNoise), n)
	r.set("ap.fft_ms", perOpMS(d.fft), n)
	r.set("ap.detect_ms", perOpMS(d.detect), n)
	r.set("core.comm_ms", perOpMS(d.job)-perOpMS(d.synth)-perOpMS(d.fft)-perOpMS(d.detect), n)
	r.set("dsp.fft_batch_ms", perOpMS(d.fftBatch), n)
	r.set("dsp.batches_per_capture", ratio(d.fftBatch.count, d.captures), int(d.captures))
	r.set("parallel.workers_mean", ratio(d.workers.sum, d.workers.count), int(d.workers.count))

	mean := map[string]float64{}
	for _, rep := range reps {
		var total time.Duration
		for _, o := range rep.ops {
			total += o.done - o.sent
		}
		mean[rep.depth] = ratio(ms(total), float64(len(rep.ops)))
	}
	direct := reps[len(reps)-1]
	calls := len(direct.ops)
	r.set("serve.http_ms", mean["http"], calls)
	r.set("serve.handler_ms", mean["handler"], calls)
	r.set("milback.call_ms", mean["cluster"], calls)
	r.set("serve.transport_ms", mean["http"]-mean["handler"], calls)
	r.set("serve.self_ms", mean["handler"]-mean["cluster"], calls)
	var dd apTotals
	dd.add(direct.after, 1)
	dd.add(direct.before, -1)
	r.set("milback.self_ms", mean["cluster"]-ratio(1000*(dd.queueWait.sum+dd.job.sum), float64(calls)), calls)
}

// hsum is a histogram's observation count and sum.
type hsum struct{ count, sum float64 }

func (h *hsum) add(x milback.Histogram, sign float64) {
	h.count += sign * float64(x.Count)
	h.sum += sign * x.Sum
}

// apTotals sums, over every AP, the instruments the per-layer metrics read.
type apTotals struct {
	queueWait, job, lease, workers    hsum
	synth, synthClutter, synthTargets hsum
	synthNoise, fft, fftBatch, detect hsum
	captures, poolHits, poolMisses    float64
	clutterHits, clutterMisses        float64
}

// add accumulates cm's instruments scaled by sign, so adding one snapshot
// and subtracting an earlier one leaves the change between them.
func (t *apTotals) add(cm milback.ClusterMetrics, sign float64) {
	for _, ap := range cm.PerAP {
		m := ap.Metrics
		t.queueWait.add(m.QueueWait, sign)
		t.job.add(m.JobDuration, sign)
		t.lease.add(m.LeaseTime, sign)
		t.workers.add(m.CaptureWorkers, sign)
		t.synth.add(m.Synthesize, sign)
		t.synthClutter.add(m.SynthClutter, sign)
		t.synthTargets.add(m.SynthTargets, sign)
		t.synthNoise.add(m.SynthNoise, sign)
		t.fft.add(m.FFT, sign)
		t.fftBatch.add(m.FFTBatch, sign)
		t.detect.add(m.Detect, sign)
		t.captures += sign * float64(m.Captures)
		t.poolHits += sign * float64(m.PoolHits)
		t.poolMisses += sign * float64(m.PoolMisses)
		t.clutterHits += sign * float64(m.ClutterHits)
		t.clutterMisses += sign * float64(m.ClutterMisses)
	}
}

// latencies returns each op's due-to-done time. A failed op counts as
// infinitely late, so it misses any latency limit.
func latencies(ops []*op) []time.Duration {
	out := make([]time.Duration, len(ops))
	for i, o := range ops {
		out[i] = o.done - o.due
		if o.err != nil {
			out[i] = math.MaxInt64
		}
	}
	return out
}

func succeeded(ops []*op) int {
	n := 0
	for _, o := range ops {
		if o.err == nil {
			n++
		}
	}
	return n
}

func medianSetup(setups []setupTimes, pick func(setupTimes) time.Duration) float64 {
	v := make([]float64, len(setups))
	for i, s := range setups {
		v[i] = pick(s).Seconds()
	}
	return median(v)
}

// median is the middle value, or the mean of the two middle values; 0 for
// no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans writes the run's client-side spans and metrics snapshots as
// JSON Lines. Times are nanoseconds from the start of the measured
// server's set-up; replay spans share the op index of the op they replay.
func (r *result) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, o := range r.ops {
		status := "ok"
		if o.err != nil {
			status = o.err.Error()
		}
		var fixErrCM *float64
		if !math.IsNaN(o.fixErrM) {
			cm := 100 * o.fixErrM
			fixErrCM = &cm
		}
		if err := enc.Encode(struct {
			Kind     string   `json:"kind"`
			ID       int      `json:"id"`
			Workload string   `json:"workload"`
			Phase    string   `json:"phase"`
			Op       string   `json:"op"`
			Node     int      `json:"node"`
			DueNS    int64    `json:"due_ns"`
			SentNS   int64    `json:"sent_ns"`
			DoneNS   int64    `json:"done_ns"`
			Status   string   `json:"status"`
			FixErrCM *float64 `json:"fix_err_cm,omitempty"`
		}{"span", o.index, r.Workload, o.phase, o.kind.String(), o.node, int64(o.due), int64(o.sent), int64(o.done), status, fixErrCM}); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, s := range r.snapshots {
		if err := enc.Encode(struct {
			Kind     string                 `json:"kind"`
			Workload string                 `json:"workload"`
			At       string                 `json:"at"`
			TNS      int64                  `json:"t_ns"`
			Metrics  milback.ClusterMetrics `json:"metrics"`
		}{"metrics", r.Workload, s.at, int64(s.t), s.metrics}); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
