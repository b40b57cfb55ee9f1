package milback

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// WithDebugServer starts an HTTP debug endpoint on addr (host:port; ":0"
// picks a free port, reported by Network.DebugAddr) serving
//
//	/debug/vars   — expvar plus a "milback" member with the full metric
//	                registry snapshot
//	/debug/pprof/ — the net/http/pprof profiling suite
//
// The server runs on its own mux and listener, so nothing leaks onto
// http.DefaultServeMux and two Networks in one process can each have one.
// Network.Close shuts it down. NewNetwork fails with ErrInvalidConfig if the
// address cannot be bound or observability is disabled in the system config.
func WithDebugServer(addr string) Option {
	return func(o *options) { o.debugAddr = addr }
}

// DebugAddr returns the bound address of the debug server started by
// WithDebugServer, or "" when none is running. Useful with ":0" to discover
// the ephemeral port.
func (nw *Network) DebugAddr() string {
	return nw.cluster.DebugAddr()
}

// Histogram is a fixed-bucket distribution snapshot. Bucket i counts
// observations below Bounds[i]; the final entry of Buckets is the unbounded
// overflow bucket, so len(Buckets) == len(Bounds)+1.
type Histogram struct {
	// Count is the number of observations and Sum their total (seconds for
	// all of the Metrics histograms).
	Count uint64
	Sum   float64
	// Bounds are the bucket upper bounds in ascending order.
	Bounds []float64
	// Buckets are the per-bucket counts, overflow last.
	Buckets []uint64
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Metrics is a typed snapshot of the network's observability plane: where
// Stats answers "what did the network accomplish" (exchanges, bit errors,
// airtime), Metrics answers "how is the machinery behaving" — scheduler
// latencies, capture-buffer recycling, clutter-cache effectiveness and
// per-stage pipeline timings. All durations are in seconds of wall-clock
// host time (the simulation's own timebase appears only in Stats.AirtimeS).
type Metrics struct {
	// QueueWait distributes how long scheduled operations waited for the
	// beam; JobDuration how long they held it.
	QueueWait   Histogram
	JobDuration Histogram

	// Synthesize, FFT and Detect time the three stages of the AP capture
	// pipeline: chirp-frame synthesis, background-subtracted range FFTs, and
	// peak detection / parameter recovery.
	Synthesize Histogram
	FFT        Histogram
	Detect     Histogram

	// SynthClutter, SynthTargets and SynthNoise split the synthesize stage
	// into its kernel phases — clutter-template fill, target-tone
	// generation and the noise fold-in.
	SynthClutter Histogram
	SynthTargets Histogram
	SynthNoise   Histogram

	// FFTReal is always empty: the per-pair fused transform it timed is no
	// longer a production path.
	//
	// Deprecated: use FFTBatch; this field will be removed in a later
	// release.
	FFTReal Histogram

	// FFTBatch times the batched subtract-transform passes inside the FFT
	// stage (one observation per dsp.BatchPlan dispatch — background
	// subtraction and range-Doppler columns).
	FFTBatch Histogram

	// CaptureWorkers distributes how many pooled workers joined each
	// intra-capture fan-out. Pinned at 1 when GOMAXPROCS is 1.
	CaptureWorkers Histogram

	// LeaseTime distributes how long operations held capture buffers
	// (Acquire to Close). LeasesReclaimed counts the subset of closed leases
	// that were leaked by their operation and reclaimed at the airtime-grant
	// boundary; Captures counts chirp-burst captures drawn.
	LeaseTime       Histogram
	LeasesOpened    uint64
	LeasesClosed    uint64
	LeasesReclaimed uint64
	Captures        uint64

	// PoolHits/PoolMisses split buffer requests by whether a recycled buffer
	// was available; PoolPuts/PoolDrops split releases by whether the pool
	// had room to retain the buffer.
	PoolHits   uint64
	PoolMisses uint64
	PoolPuts   uint64
	PoolDrops  uint64

	// ClutterHits/ClutterMisses split captures by whether the AP's cached
	// clutter geometry was reusable; ClutterInvalidations counts cache
	// resets forced by steering or scene changes.
	ClutterHits          uint64
	ClutterMisses        uint64
	ClutterInvalidations uint64
}

func histogramFromSnapshot(s obs.HistogramSnapshot) Histogram {
	return Histogram{Count: s.Count, Sum: s.Sum, Bounds: s.Bounds, Buckets: s.Buckets}
}

// Metrics returns a snapshot of the network's internal instrumentation. The
// snapshot is approximate under concurrent operations (each instrument is
// read atomically, the cut across instruments is not); quiesce the network
// for exact totals. With observability disabled (see
// core.Config.DisableObservability via WithSystemConfig) every field is
// zero.
func (nw *Network) Metrics() Metrics {
	return metricsFromSnapshot(nw.net.System().Obs().Snapshot())
}

// metricsFromSnapshot assembles the typed Metrics view from one registry
// snapshot; Network.Metrics and the cluster's per-AP metrics share it so
// the two views can never drift.
func metricsFromSnapshot(snap obs.Snapshot) Metrics {
	return Metrics{
		QueueWait:            histogramFromSnapshot(snap.Histograms[obs.MetricQueueWaitSeconds]),
		JobDuration:          histogramFromSnapshot(snap.Histograms[obs.MetricJobDurationSeconds]),
		Synthesize:           histogramFromSnapshot(snap.Histograms[obs.MetricSynthesizeSeconds]),
		SynthClutter:         histogramFromSnapshot(snap.Histograms[obs.MetricSynthClutterSeconds]),
		SynthTargets:         histogramFromSnapshot(snap.Histograms[obs.MetricSynthTargetsSeconds]),
		SynthNoise:           histogramFromSnapshot(snap.Histograms[obs.MetricSynthNoiseSeconds]),
		FFT:                  histogramFromSnapshot(snap.Histograms[obs.MetricFFTSeconds]),
		FFTBatch:             histogramFromSnapshot(snap.Histograms[obs.MetricFFTBatchSeconds]),
		CaptureWorkers:       histogramFromSnapshot(snap.Histograms[obs.MetricCaptureWorkers]),
		Detect:               histogramFromSnapshot(snap.Histograms[obs.MetricDetectSeconds]),
		LeaseTime:            histogramFromSnapshot(snap.Histograms[obs.MetricLeaseSeconds]),
		LeasesOpened:         snap.Counters[obs.MetricLeasesOpened],
		LeasesClosed:         snap.Counters[obs.MetricLeasesClosed],
		LeasesReclaimed:      snap.Counters[obs.MetricLeasesReclaimed],
		Captures:             snap.Counters[obs.MetricCapturesAcquired],
		PoolHits:             snap.Counters[obs.MetricPoolHits],
		PoolMisses:           snap.Counters[obs.MetricPoolMisses],
		PoolPuts:             snap.Counters[obs.MetricPoolPuts],
		PoolDrops:            snap.Counters[obs.MetricPoolDrops],
		ClutterHits:          snap.Counters[obs.MetricClutterHits],
		ClutterMisses:        snap.Counters[obs.MetricClutterMisses],
		ClutterInvalidations: snap.Counters[obs.MetricClutterInvalidations],
	}
}

// WriteTrace writes the network's retained pipeline-stage spans to w as
// JSON Lines, oldest first: one object per line with name, start_ns, dur_ns
// and a stage-specific arg (chirp count for synthesis, capture count for
// leases, queue key for jobs). The tracer is a bounded ring — only the most
// recent spans are retained (see cmd/milback-report -trace for a consumer).
// With observability disabled the trace is empty.
func (nw *Network) WriteTrace(w io.Writer) error {
	if err := obs.WriteTrace(w, nw.net.System().Tracer().Snapshot()); err != nil {
		return fmt.Errorf("milback: %w", err)
	}
	return nil
}
