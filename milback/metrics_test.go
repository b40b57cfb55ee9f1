package milback

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func quickstart(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	ctx := context.Background()
	c := newTestCluster(t, append([]Option{WithSeed(1)}, opts...)...)
	node := mustJoin(t, c, 3, 0.5, -10)
	if _, err := c.Localize(ctx, node); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(ctx, node, []byte("hello"), Rate10Mbps); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMetricsAfterQuickstart is the acceptance check from the issue: after
// the README quickstart sequence, the typed snapshot must report non-zero
// queue-wait, pool, lease and stage activity.
func TestMetricsAfterQuickstart(t *testing.T) {
	m := quickstart(t).Metrics().PerAP[0].Metrics
	if m.QueueWait.Count == 0 || m.JobDuration.Count == 0 {
		t.Errorf("scheduler histograms empty: %+v %+v", m.QueueWait, m.JobDuration)
	}
	if m.PoolHits == 0 || m.PoolPuts == 0 {
		t.Errorf("pool counters: hits=%d puts=%d, want non-zero", m.PoolHits, m.PoolPuts)
	}
	if m.LeasesOpened == 0 || m.LeasesOpened != m.LeasesClosed {
		t.Errorf("leases: opened=%d closed=%d, want equal and non-zero", m.LeasesOpened, m.LeasesClosed)
	}
	if m.Synthesize.Count == 0 || m.FFT.Count == 0 || m.Detect.Count == 0 {
		t.Errorf("stage histograms empty: synth=%d fft=%d detect=%d",
			m.Synthesize.Count, m.FFT.Count, m.Detect.Count)
	}
	if m.QueueWait.Mean() < 0 || len(m.QueueWait.Buckets) != len(m.QueueWait.Bounds)+1 {
		t.Errorf("queue-wait histogram malformed: %+v", m.QueueWait)
	}

	// The histogram's bucket totals agree with its count (no entry lost
	// between buckets and the overflow).
	var fromBuckets uint64
	for _, b := range m.QueueWait.Buckets {
		fromBuckets += b
	}
	if fromBuckets != m.QueueWait.Count {
		t.Errorf("QueueWait buckets total %d != count %d", fromBuckets, m.QueueWait.Count)
	}
}

func TestWriteTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := quickstart(t).WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("trace is empty after quickstart traffic")
	}
	seen := make(map[string]bool)
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, want := range []string{obs.SpanJob, obs.SpanLease, obs.SpanSynthesize} {
		if !seen[want] {
			t.Errorf("trace missing %s spans (have %v)", want, seen)
		}
	}
}

func TestDebugServerFacade(t *testing.T) {
	c := quickstart(t, WithDebugServer("127.0.0.1:0"))
	addr := c.DebugAddr()
	if addr == "" {
		t.Fatal("DebugAddr empty with WithDebugServer")
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Milback obs.Snapshot `json:"milback"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if doc.Milback.Counters[obs.MetricPoolHits] == 0 {
		t.Error("registry snapshot over HTTP shows no pool hits")
	}

	c.Close()
	if _, err := http.Get("http://" + addr + "/debug/vars"); err == nil {
		t.Error("debug server still serving after Close")
	}
}

func TestDebugServerWithoutObservability(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.DisableObservability = true
	_, err := NewCluster(WithSystemConfig(cfg), WithDebugServer("127.0.0.1:0"))
	if err == nil || !strings.Contains(err.Error(), "observability") {
		t.Fatalf("want observability error, got %v", err)
	}

	// Without the debug server the disabled config is fine, and the typed
	// snapshot and trace read as empty rather than failing.
	c := newTestCluster(t, WithSystemConfig(cfg))
	if m := c.Metrics().PerAP[0].Metrics; m.QueueWait.Count != 0 || m.PoolHits != 0 {
		t.Errorf("disabled observability should read zero, got %+v", m)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled observability trace should be empty, got %q", buf.String())
	}
}
