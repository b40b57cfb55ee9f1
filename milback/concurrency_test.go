package milback

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
)

// eight well-separated placements inside the paper's operating envelope.
var concurrencyPlacements = []struct {
	x, y, orient float64
}{
	{2.0, -1.2, 10},
	{2.5, -0.6, -8},
	{3.0, -0.2, 5},
	{2.8, 0.3, -12},
	{2.2, 0.8, 0},
	{3.2, 1.0, 8},
	{2.6, 1.6, -5},
	{3.4, -1.6, 12},
}

func concurrencyNetwork(t *testing.T) (*Cluster, []NodeID) {
	t.Helper()
	c := newTestCluster(t, WithSeed(7))
	nodes := make([]NodeID, len(concurrencyPlacements))
	for i, p := range concurrencyPlacements {
		nodes[i] = mustJoin(t, c, p.x, p.y, p.orient)
	}
	return c, nodes
}

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf("node-%d-payload", i))
}

// 8 goroutines exchanging on distinct nodes must complete correctly under
// the race detector, and — because every node draws from its own seed
// stream — produce results bit-identical to a sequential run on an
// identically-seeded network.
func TestConcurrentExchangesDeterministic(t *testing.T) {
	ctx := context.Background()
	// Reference: sequential run.
	seq, seqNodes := concurrencyNetwork(t)
	want := make([]Exchange, len(seqNodes))
	for i, n := range seqNodes {
		ex, err := seq.Send(ctx, n, payloadFor(i), Rate10Mbps)
		if err != nil {
			t.Fatalf("sequential send %d: %v", i, err)
		}
		want[i] = ex
	}

	// Same network, 8 goroutines racing for the beam.
	c, nodes := concurrencyNetwork(t)
	got := make([]Exchange, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n NodeID) {
			defer wg.Done()
			got[i], errs[i] = c.Send(ctx, n, payloadFor(i), Rate10Mbps)
		}(i, n)
	}
	wg.Wait()

	for i := range nodes {
		if errs[i] != nil {
			t.Fatalf("concurrent send %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("node %d: payload differs between sequential and concurrent runs", i)
		}
		if got[i].BitErrors != want[i].BitErrors {
			t.Errorf("node %d: bit errors %d (concurrent) vs %d (sequential)", i, got[i].BitErrors, want[i].BitErrors)
		}
		if got[i].Position != want[i].Position {
			t.Errorf("node %d: fix differs: %+v vs %+v", i, got[i].Position, want[i].Position)
		}
		if got[i].SNRdB != want[i].SNRdB {
			t.Errorf("node %d: SNR %g vs %g", i, got[i].SNRdB, want[i].SNRdB)
		}
	}
}

// Two concurrent runs with the same seed must agree with each other no
// matter how the goroutines interleave.
func TestConcurrentRunsReproducible(t *testing.T) {
	run := func() []Exchange {
		c, nodes := concurrencyNetwork(t)
		out := make([]Exchange, len(nodes))
		var wg sync.WaitGroup
		for i, n := range nodes {
			wg.Add(1)
			go func(i int, n NodeID) {
				defer wg.Done()
				ex, err := c.Deliver(context.Background(), n, payloadFor(i), Rate36Mbps)
				if err != nil {
					t.Errorf("deliver %d: %v", i, err)
					return
				}
				out[i] = ex
			}(i, n)
		}
		wg.Wait()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].BitErrors != b[i].BitErrors || !bytes.Equal(a[i].Data, b[i].Data) || a[i].Position != b[i].Position {
			t.Errorf("node %d: runs diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Cluster.Stats totals must equal the sums over the individual exchange
// results.
func TestStatsMatchPerExchangeSums(t *testing.T) {
	c, nodes := concurrencyNetwork(t)
	var wantErrors, wantBits uint64
	var wantAirtime float64
	count := 0
	// Coded transfers count their wire bits, in the Exchange as in Stats.
	for _, opts := range [][]ExchangeOption{nil, nil, {WithARQ(2)}, {WithFEC()}, {WithFEC(), WithARQ(2)}} {
		for i, n := range nodes {
			ex, err := c.Send(context.Background(), n, payloadFor(i), Rate10Mbps, opts...)
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			wantErrors += uint64(ex.BitErrors)
			wantBits += uint64(ex.BitsSent)
			wantAirtime += ex.AirtimeS
			count++
		}
	}
	st := c.Stats()
	if st.Exchanges != uint64(count) || st.Completed != uint64(count) {
		t.Fatalf("exchanges/completed = %d/%d, want %d", st.Exchanges, st.Completed, count)
	}
	if st.BitErrors != wantErrors || st.BitsSent != wantBits {
		t.Fatalf("bit totals %d/%d, want %d/%d", st.BitErrors, st.BitsSent, wantErrors, wantBits)
	}
	if math.Abs(st.AirtimeS-wantAirtime) > 1e-9 {
		t.Fatalf("airtime %g, want %g", st.AirtimeS, wantAirtime)
	}
	if waits := c.Metrics().PerAP[0].Metrics.QueueWait.Count; waits != uint64(count) {
		t.Fatalf("queue-wait histogram holds %d entries, want %d", waits, count)
	}
	if st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("failed/cancelled = %d/%d, want 0/0", st.Failed, st.Cancelled)
	}
}

// Mixed concurrent operations — exchanges, localizations, moves — on
// distinct nodes must all complete under the race detector.
func TestConcurrentMixedOperations(t *testing.T) {
	ctx := context.Background()
	c, nodes := concurrencyNetwork(t)
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n NodeID) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				if _, err := c.Send(ctx, n, payloadFor(i), Rate10Mbps); err != nil {
					t.Errorf("send %d: %v", i, err)
				}
			case 1:
				if _, err := c.Deliver(ctx, n, payloadFor(i), Rate36Mbps); err != nil {
					t.Errorf("deliver %d: %v", i, err)
				}
			case 2:
				if _, err := c.Localize(ctx, n); err != nil {
					t.Errorf("localize %d: %v", i, err)
				}
			case 3:
				if err := c.Move(ctx, n, concurrencyPlacements[i].x, concurrencyPlacements[i].y+0.1, 0); err != nil {
					t.Errorf("move %d: %v", i, err)
				}
			}
		}(i, n)
	}
	wg.Wait()
}

// TestClusterJoinDuringDiscover joins nodes while sweeps run at the same
// AP: a join adds to the AP's node list on the caller's goroutine while a
// sweep reads that list on the scheduler goroutine, and the race detector
// must see no unsynchronized access.
func TestClusterJoinDuringDiscover(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(7))
	mustJoin(t, c, 2, 0, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := c.Discover(ctx); err != nil {
				t.Errorf("sweep %d: %v", i, err)
			}
		}
	}()
	for _, p := range concurrencyPlacements {
		mustJoin(t, c, p.x, p.y, p.orient)
	}
	wg.Wait()
}

// TestClusterGrantFairness pins fairness between nodes where the traffic
// is: a node with a backlog of callers cannot starve a neighbour. With the
// AP's first grant held, four Localize callers queue on node A and then one
// on node B. A node's calls run one at a time under its lock, so only one
// of A's callers waits for airtime when B arrives, and B's job must be the
// second node job on the air. The order is read from the proto.job spans,
// which are recorded in execution order, not from return order, which
// races.
func TestClusterGrantFairness(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(7))
	a := mustJoin(t, c, 2.5, -0.6, -8)
	b := mustJoin(t, c, 3.0, 0.5, 5)
	cell := c.aps[0]

	gate := make(chan struct{})
	held := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = cell.eng.Run(ctx, cellJobKey, func(context.Context) (proto.JobReport, error) {
			close(held)
			<-gate
			return proto.JobReport{}, nil
		})
	}()
	<-held
	localize := func(id NodeID) {
		defer wg.Done()
		if _, err := c.Localize(ctx, id); err != nil {
			t.Errorf("localize %d: %v", id, err)
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go localize(a)
	}
	time.Sleep(20 * time.Millisecond) // A's first caller waits for airtime
	wg.Add(1)
	go localize(b)
	time.Sleep(20 * time.Millisecond) // and B's caller behind it
	close(gate)
	wg.Wait()

	var order []int64
	for _, s := range cell.sys.Tracer().Snapshot() {
		if s.Name == obs.SpanJob && (s.Arg == int64(a) || s.Arg == int64(b)) {
			order = append(order, s.Arg)
		}
	}
	if len(order) != 5 {
		t.Fatalf("traced %d node jobs, want 5: %v", len(order), order)
	}
	if order[1] != int64(b) {
		t.Fatalf("node job order %v (A = %d, B = %d): B was not granted second", order, a, b)
	}
}
