package milback

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// WithDebugServer starts an HTTP debug endpoint on addr (host:port; ":0"
// picks a free port, reported by Cluster.DebugAddr) serving AP 0's registry
// at
//
//	/debug/vars   — expvar plus a "milback" member with the full metric
//	                registry snapshot
//	/debug/pprof/ — the net/http/pprof profiling suite
//
// The server runs on its own mux and listener, so nothing leaks onto
// http.DefaultServeMux and two Clusters in one process can each have one.
// Cluster.Close shuts it down. NewCluster fails with ErrInvalidConfig if the
// address cannot be bound or observability is disabled in the system config.
func WithDebugServer(addr string) Option {
	return func(o *options) { o.debugAddr = addr }
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

// Metrics is a typed snapshot of one AP's observability plane: where
// Stats answers "what did the network accomplish" (exchanges, bit errors,
// airtime), Metrics answers "how is the machinery behaving" — scheduler
// latencies, capture-buffer recycling and per-stage pipeline timings. All
// durations are in seconds of wall-clock host time (the simulation's own
// timebase appears only in Stats.AirtimeS).
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

	// SynthDraw, SynthClutter, SynthTargets and SynthNoise split the
	// synthesize stage into its phases — the serial state build and AWGN
	// draw, per-capture set-up (clutter template, frequency grid and
	// gain-envelope fill), per-chirp target-tone generation and the noise
	// fold-in. Together they cover the whole stage.
	SynthDraw    Histogram
	SynthClutter Histogram
	SynthTargets Histogram
	SynthNoise   Histogram

	// FFTBatch times the batched subtract-transform passes inside the FFT
	// stage (one observation per background-subtraction dsp.BatchPlan
	// dispatch).
	FFTBatch Histogram

	// CaptureWorkers distributes how many pooled workers joined each
	// intra-capture fan-out. Pinned at 1 when GOMAXPROCS is 1.
	CaptureWorkers Histogram

	// LeaseTime distributes how long operations held capture buffers
	// (Acquire to Close). LeasesOpened minus LeasesClosed is the leases
	// still open: operations in flight, or leaked ones; Captures counts
	// chirp-burst captures drawn.
	LeaseTime    Histogram
	LeasesOpened uint64
	LeasesClosed uint64
	Captures     uint64

	// PoolHits/PoolMisses split buffer requests by whether a recycled buffer
	// was available; PoolPuts/PoolDrops split releases by whether the pool
	// had room to retain the buffer.
	PoolHits   uint64
	PoolMisses uint64
	PoolPuts   uint64
	PoolDrops  uint64

	// Deprecated: use Captures, which counts every clutter derivation.
	// ClutterHits and ClutterMisses read zero: the AP keeps no clutter cache.
	ClutterHits, ClutterMisses uint64
}

func histogramFromSnapshot(s obs.HistogramSnapshot) Histogram {
	return Histogram{Count: s.Count, Sum: s.Sum, Bounds: s.Bounds, Buckets: s.Buckets}
}

// metricsFromSnapshot assembles the typed Metrics view from one registry
// snapshot (see Cluster.Metrics).
func metricsFromSnapshot(snap obs.Snapshot) Metrics {
	return Metrics{
		QueueWait:      histogramFromSnapshot(snap.Histograms[obs.MetricQueueWaitSeconds]),
		JobDuration:    histogramFromSnapshot(snap.Histograms[obs.MetricJobDurationSeconds]),
		Synthesize:     histogramFromSnapshot(snap.Histograms[obs.MetricSynthesizeSeconds]),
		SynthDraw:      histogramFromSnapshot(snap.Histograms[obs.MetricSynthDrawSeconds]),
		SynthClutter:   histogramFromSnapshot(snap.Histograms[obs.MetricSynthClutterSeconds]),
		SynthTargets:   histogramFromSnapshot(snap.Histograms[obs.MetricSynthTargetsSeconds]),
		SynthNoise:     histogramFromSnapshot(snap.Histograms[obs.MetricSynthNoiseSeconds]),
		FFT:            histogramFromSnapshot(snap.Histograms[obs.MetricFFTSeconds]),
		FFTBatch:       histogramFromSnapshot(snap.Histograms[obs.MetricFFTBatchSeconds]),
		CaptureWorkers: histogramFromSnapshot(snap.Histograms[obs.MetricCaptureWorkers]),
		Detect:         histogramFromSnapshot(snap.Histograms[obs.MetricDetectSeconds]),
		LeaseTime:      histogramFromSnapshot(snap.Histograms[obs.MetricLeaseSeconds]),
		LeasesOpened:   snap.Counters[obs.MetricLeasesOpened],
		LeasesClosed:   snap.Counters[obs.MetricLeasesClosed],
		Captures:       snap.Counters[obs.MetricCapturesAcquired],
		PoolHits:       snap.Counters[obs.MetricPoolHits],
		PoolMisses:     snap.Counters[obs.MetricPoolMisses],
		PoolPuts:       snap.Counters[obs.MetricPoolPuts],
		PoolDrops:      snap.Counters[obs.MetricPoolDrops],
	}
}

// APMetrics is one AP's slice of the cluster observability plane: that
// AP's machinery view (Metrics) plus the cluster's roaming accounting for
// it.
type APMetrics struct {
	// AP is the layout index; Placement its position.
	AP        int
	Placement APPlacement
	// Removed reports an AP drained out of the cluster by RemoveAP; its
	// counters stop moving but its history remains.
	Removed bool

	// HandoffsIn counts nodes this AP received from a neighbour and
	// HandoffsOut nodes it drained away; Rebalances is the subset of
	// HandoffsIn forced by an AP leaving the cluster rather than by node
	// movement. Nodes is the number of nodes currently homed here.
	HandoffsIn  uint64
	HandoffsOut uint64
	Rebalances  uint64
	Nodes       int64

	// Metrics is the AP's own scheduler/capture/pipeline instrumentation.
	Metrics Metrics
}

// ClusterMetrics aggregates the per-AP observability registries.
type ClusterMetrics struct {
	// PerAP holds one entry per AP in layout order, removed APs included.
	PerAP []APMetrics
	// Handoffs is the cluster-wide number of completed handoffs (each
	// counted once, at the receiving AP) and Rebalances the subset forced
	// by RemoveAP.
	Handoffs   uint64
	Rebalances uint64
}

// Metrics returns a snapshot of every AP's internal instrumentation plus
// the cluster's roaming counters. The snapshot is approximate under
// concurrent operations (each instrument is read atomically, the cut
// across instruments is not); quiesce the cluster for exact totals. With
// observability disabled (see core.Config.DisableObservability via
// WithSystemConfig) every instrument reads zero.
func (c *Cluster) Metrics() ClusterMetrics {
	var out ClusterMetrics
	for _, cell := range c.aps {
		snap := cell.sys.Obs().Snapshot()
		c.mu.Lock()
		removed := cell.removed
		c.mu.Unlock()
		m := APMetrics{
			AP:          cell.index,
			Placement:   cell.place,
			Removed:     removed,
			HandoffsIn:  snap.Counters[obs.MetricHandoffsIn],
			HandoffsOut: snap.Counters[obs.MetricHandoffsOut],
			Rebalances:  snap.Counters[obs.MetricRebalances],
			Nodes:       snap.Gauges[obs.MetricNodes],
			Metrics:     metricsFromSnapshot(snap),
		}
		out.PerAP = append(out.PerAP, m)
		out.Handoffs += m.HandoffsIn
		out.Rebalances += m.Rebalances
	}
	return out
}

// WriteTrace writes every AP's retained pipeline-stage spans to w as JSON
// Lines, AP by AP in layout order (removed APs included) and oldest first
// within an AP: one object per line with name, start_ns, dur_ns and a
// stage-specific arg (chirp count for synthesis, capture count for leases,
// NodeID for jobs, 0 for sweeps and scene edits). Each AP's tracer is a bounded ring — only its most
// recent spans are retained (see cmd/milback-report -trace for a consumer).
// With observability disabled the trace is empty.
func (c *Cluster) WriteTrace(w io.Writer) error {
	for _, cell := range c.aps {
		if err := obs.WriteTrace(w, cell.sys.Tracer().Snapshot()); err != nil {
			return fmt.Errorf("milback: %w", err)
		}
	}
	return nil
}
