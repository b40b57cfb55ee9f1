package milback

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/ring"
)

// fourCorners is a compact 4-AP layout: one AP at each corner of a 4 m
// square, close enough that the 4.5 m interference radius couples each AP
// to its two side neighbours (diagonals, at 5.66 m, stay independent).
func fourCorners() []APPlacement {
	return []APPlacement{
		{X: 0, Y: 0, Weight: 1},
		{X: 4, Y: 0, Weight: 1},
		{X: 0, Y: 4, Weight: 1},
		{X: 4, Y: 4, Weight: 1},
	}
}

// clusterOwnerOf asks the cluster's own ring who serves a position
// (single-threaded test access).
func clusterOwnerOf(c *Cluster, x, y float64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ownerLocked(x, y)
}

// recordExchange folds an exchange (or its error) into a fingerprint; every
// float is formatted exactly, so two runs agree only bit-for-bit.
func recordExchange(sb *strings.Builder, ex Exchange, err error) {
	if err != nil {
		fmt.Fprintf(sb, "err=%v;", err)
		return
	}
	fmt.Fprintf(sb, "data=%x errs=%d bits=%d snr=%v pos=%v air=%v;",
		ex.Data, ex.BitErrors, ex.BitsSent, ex.SNRdB, ex.Position, ex.AirtimeS)
}

func recordPosition(sb *strings.Builder, pos Position, err error) {
	if err != nil {
		fmt.Fprintf(sb, "err=%v;", err)
		return
	}
	fmt.Fprintf(sb, "pos=%v;", pos)
}

// clusterDeterministicRun drives a 4-AP cluster through a fixed operation
// sequence — concurrent per-node goroutines, roaming moves that cross ring
// boundaries — and fingerprints every result.
func clusterDeterministicRun(t *testing.T, seed int64) string {
	t.Helper()
	ctx := context.Background()
	c, err := NewCluster(WithSeed(seed), WithAPLayout(fourCorners()...), WithInterferenceRadius(4.5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	starts := []struct{ x, y, orient float64 }{
		{1.6, 0.4, 5},
		{2.4, 1.3, -10},
		{3.1, 2.6, 8},
	}
	ids := make([]NodeID, len(starts))
	for i, p := range starts {
		id, err := c.Join(ctx, p.x, p.y, p.orient)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		ids[i] = id
	}

	fps := make([]string, len(ids))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sb strings.Builder
			id, p := ids[i], starts[i]
			payload := []byte(fmt.Sprintf("cluster-node-%d", i))

			ex, err := c.Send(ctx, id, payload, Rate10Mbps)
			recordExchange(&sb, ex, err)
			pos, err := c.Localize(ctx, id)
			recordPosition(&sb, pos, err)

			// Roam: cross at least one 1 m cell boundary (ownership is
			// hashed per cell, so this usually — deterministically per
			// seed — changes the serving AP).
			if err := c.Move(ctx, id, p.x+1.3, p.y+0.8, p.orient); err != nil {
				fmt.Fprintf(&sb, "move-err=%v;", err)
			}
			ap, err := c.OwnerAP(id)
			fmt.Fprintf(&sb, "ap=%d err=%v;", ap, err)

			ex, err = c.Deliver(ctx, id, payload, Rate36Mbps)
			recordExchange(&sb, ex, err)

			// Roam home again.
			if err := c.Move(ctx, id, p.x, p.y, p.orient); err != nil {
				fmt.Fprintf(&sb, "move-err=%v;", err)
			}
			ap, err = c.OwnerAP(id)
			fmt.Fprintf(&sb, "ap=%d err=%v;", ap, err)

			pos, err = c.Localize(ctx, id)
			recordPosition(&sb, pos, err)
			fps[i] = sb.String()
		}(i)
	}
	wg.Wait()

	met := c.Metrics()
	var sb strings.Builder
	for i, fp := range fps {
		fmt.Fprintf(&sb, "node%d{%s}\n", i, fp)
	}
	fmt.Fprintf(&sb, "handoffs=%d rebalances=%d", met.Handoffs, met.Rebalances)
	for _, apm := range met.PerAP {
		fmt.Fprintf(&sb, " ap%d=%d/%d/%d", apm.AP, apm.HandoffsIn, apm.HandoffsOut, apm.RingNodes)
	}
	return sb.String()
}

// TestClusterDeterministic pins the cluster's determinism contract: the
// same cluster seed and the same operation sequence produce bit-identical
// results — payloads, fixes, roaming outcomes, handoff counters —
// regardless of goroutine interleaving, for every seed. Runs under -race
// via the determinism suite.
func TestClusterDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 42, 9000} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			want := clusterDeterministicRun(t, seed)
			for run := 1; run < 3; run++ {
				if got := clusterDeterministicRun(t, seed); got != want {
					t.Fatalf("run %d diverged from run 0:\n got %s\nwant %s", run, got, want)
				}
			}
		})
	}
}

// TestClusterSingleAPMatchesNetworkDeterministic pins the 1-AP identity: a
// default cluster reproduces, bit for bit, the exchanges and fixes that the
// retired single-AP Network facade produced for the same seed and
// operation sequence (golden values recorded from that facade).
func TestClusterSingleAPMatchesNetworkDeterministic(t *testing.T) {
	ctx := context.Background()
	places := []struct{ x, y, orient float64 }{
		{2.0, -1.2, 10},
		{2.8, 0.6, -6},
		{3.3, 1.4, 4},
	}
	payload := []byte("one-ap-identity")
	want := []struct {
		bitErrors int
		snrDB     float64
		exPos     Position
		fix       Position
	}{
		{0, 28.17517219436109,
			Position{RangeM: 2.3493207337690882, AzimuthDeg: -27.739485774746445, OrientationDeg: 9.873058388862532, X: 2.0793205059834596, Y: -1.0934962933243155},
			Position{RangeM: 2.3840536319106675, AzimuthDeg: -31.014797980782234, OrientationDeg: 10.321258919007416, X: 2.043215619805781, Y: -1.2284061424496882}},
		{0, 25.105476778412815,
			Position{RangeM: 2.9582961003258497, AzimuthDeg: 13.475437716422533, OrientationDeg: -3.6918476531738236, X: 2.8768539346653097, Y: 0.6893672865779571},
			Position{RangeM: 2.9737531604536165, AzimuthDeg: 15.298640415529427, OrientationDeg: -3.817621481880721, X: 2.8683742909349332, Y: 0.7846252522136876}},
		{0, 20.892917702544374,
			Position{RangeM: 3.5463324328827746, AzimuthDeg: 22.93792343028598, OrientationDeg: 4.166978807452086, X: 3.26591558305867, Y: 1.3821248600798726},
			Position{RangeM: 3.5834629709913712, AzimuthDeg: 21.70032130151637, OrientationDeg: 4.276813330875623, X: 3.329504735034387, Y: 1.3249924844503467}},
	}

	c, err := NewCluster(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.APCount(); got != 1 {
		t.Fatalf("default cluster has %d APs, want 1", got)
	}
	for i, p := range places {
		id, err := c.Join(ctx, p.x, p.y, p.orient)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := c.Send(ctx, id, payload, Rate10Mbps)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := c.Localize(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		w := want[i]
		if string(ex.Data) != string(payload) || ex.BitErrors != w.bitErrors ||
			ex.SNRdB != w.snrDB || ex.Position != w.exPos {
			t.Errorf("node %d: cluster exchange diverged from the single-AP golden: %+v vs %+v", i, ex, w)
		}
		if pos != w.fix {
			t.Errorf("node %d: cluster fix diverged from the single-AP golden: %+v vs %+v", i, pos, w.fix)
		}
	}
}

// TestClusterPartitionBoundaryNode pins the floor quantization contract at
// the cluster level: a node exactly on a 1 m cell boundary belongs to the
// cell on the boundary's positive side, and moves within one cell never
// hand off.
func TestClusterPartitionBoundaryNode(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(WithAPs(2), WithInterferenceRadius(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Exactly on the x=2, y=1 corner: the owner must be the cell [2,3)×[1,2).
	id, err := c.Join(ctx, 2.0, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := c.OwnerAP(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := clusterOwnerOf(c, 2.5, 1.5); owner != want {
		t.Fatalf("boundary node owned by AP %d, want the positive-side cell's owner %d", owner, want)
	}
	c.mu.Lock()
	if got, _ := c.ring.Owner(ring.CellKey(2.0, 1.0, shardCellM)); got != owner {
		c.mu.Unlock()
		t.Fatalf("cluster owner %d disagrees with ring owner %d", owner, got)
	}
	c.mu.Unlock()

	// Moves inside the same cell must never hand off, wherever in the cell
	// they land.
	for _, p := range []struct{ x, y float64 }{{2.0, 1.9}, {2.99, 1.0}, {2.5, 1.5}} {
		if err := c.Move(ctx, id, p.x, p.y, 0); err != nil {
			t.Fatalf("move to (%g,%g): %v", p.x, p.y, err)
		}
		if now, _ := c.OwnerAP(id); now != owner {
			t.Fatalf("intra-cell move to (%g,%g) handed off: AP %d -> %d", p.x, p.y, owner, now)
		}
	}
	if met := c.Metrics(); met.Handoffs != 0 {
		t.Fatalf("intra-cell moves produced %d handoffs, want 0", met.Handoffs)
	}
}

// findRoam returns a target position whose ring owner differs from the
// start's (probing cells deterministically).
func findRoam(t *testing.T, c *Cluster, x, y float64) (float64, float64) {
	t.Helper()
	from := clusterOwnerOf(c, x, y)
	for dx := 1.0; dx < 32; dx++ {
		if clusterOwnerOf(c, x+dx, y) != from {
			return x + dx, y
		}
	}
	t.Fatal("no owner change within 32 cells — ring distribution broken")
	return 0, 0
}

// TestClusterHandoffDrainsInFlightGrant pins the drain contract: a handoff
// racing a long exchange on the same node completes both — the exchange
// finishes its grant, then the node detaches — and the capture plane's
// lease accounting stays balanced (no lease torn or leaked mid-capture).
func TestClusterHandoffDrainsInFlightGrant(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(WithAPLayout(APPlacement{}, APPlacement{X: 4}), WithInterferenceRadius(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.Join(ctx, 1.4, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := findRoam(t, c, 1.4, 0.6)
	wantAP := clusterOwnerOf(c, tx, ty)

	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	var (
		wg      sync.WaitGroup
		sendErr error
		moveErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, sendErr = c.Send(ctx, id, payload, Rate10Mbps)
	}()
	go func() {
		defer wg.Done()
		moveErr = c.Move(ctx, id, tx, ty, 5)
	}()
	wg.Wait()
	if sendErr != nil {
		t.Fatalf("in-flight send: %v", sendErr)
	}
	if moveErr != nil {
		t.Fatalf("racing move: %v", moveErr)
	}
	if ap, _ := c.OwnerAP(id); ap != wantAP {
		t.Fatalf("node at AP %d after handoff, want %d", ap, wantAP)
	}
	met := c.Metrics()
	if met.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", met.Handoffs)
	}
	var opened, closed uint64
	for _, apm := range met.PerAP {
		opened += apm.Metrics.LeasesOpened
		closed += apm.Metrics.LeasesClosed
	}
	if opened == 0 || opened != closed {
		t.Fatalf("lease accounting torn by handoff: opened %d, closed %d", opened, closed)
	}
	// The handed-off node must be fully operational at its new AP.
	if _, err := c.Send(ctx, id, []byte("post-handoff"), Rate10Mbps); err != nil && !errors.Is(err, ErrNoDetection) {
		t.Fatalf("post-handoff send: %v", err)
	}
}

// TestClusterRebalanceAfterRemoveAP pins ring-removal semantics: only the
// removed AP's nodes re-home (counted as rebalances at their new APs),
// every other node keeps its owner, and the drained AP rejects further
// removal.
func TestClusterRebalanceAfterRemoveAP(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(WithAPLayout(fourCorners()...), WithInterferenceRadius(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var ids []NodeID
	for i := 0; i < 8; i++ {
		x := 0.7 + float64(i%4)
		y := 0.4 + float64(i/4)*1.1
		id, err := c.Join(ctx, x, y, 0)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	before := make(map[NodeID]int)
	victim := -1
	for _, id := range ids {
		ap, err := c.OwnerAP(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = ap
		if victim < 0 && ap != 0 {
			victim = ap
		}
	}
	if victim < 0 {
		t.Fatal("all nodes landed on AP 0 — ring distribution broken")
	}
	victims := 0
	for _, ap := range before {
		if ap == victim {
			victims++
		}
	}

	if err := c.RemoveAP(ctx, victim); err != nil {
		t.Fatalf("RemoveAP(%d): %v", victim, err)
	}
	if got := c.APCount(); got != 3 {
		t.Fatalf("APCount = %d after removal, want 3", got)
	}
	for _, id := range ids {
		ap, err := c.OwnerAP(id)
		if err != nil {
			t.Fatal(err)
		}
		if ap == victim {
			t.Fatalf("node %d still homed at removed AP %d", id, victim)
		}
		if before[id] != victim && ap != before[id] {
			t.Fatalf("node %d moved %d -> %d though its AP stayed in the ring", id, before[id], ap)
		}
		x, y, _, err := c.TruePosition(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := clusterOwnerOf(c, x, y); ap != want {
			t.Fatalf("node %d at AP %d, ring owner is %d", id, ap, want)
		}
	}
	met := c.Metrics()
	if met.Rebalances != uint64(victims) {
		t.Fatalf("rebalances = %d, want %d (nodes drained from AP %d)", met.Rebalances, victims, victim)
	}
	if met.Handoffs != uint64(victims) {
		t.Fatalf("handoffs = %d, want %d", met.Handoffs, victims)
	}
	if !met.PerAP[victim].Removed {
		t.Fatalf("AP %d not marked removed in metrics", victim)
	}
	// Every surviving node keeps working (far nodes may legitimately be
	// invisible to their new AP).
	for _, id := range ids {
		if _, err := c.Localize(ctx, id); err != nil && !errors.Is(err, ErrNoDetection) {
			t.Fatalf("post-rebalance localize node %d: %v", id, err)
		}
	}
	if err := c.RemoveAP(ctx, victim); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("second RemoveAP(%d) = %v, want ErrInvalidConfig", victim, err)
	}
}

// TestClusterRemoveLastAPRejected pins the floor: a cluster never drops to
// zero APs.
func TestClusterRemoveLastAPRejected(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(WithAPs(2), WithInterferenceRadius(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RemoveAP(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveAP(ctx, 0); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("removing the last AP = %v, want ErrInvalidConfig", err)
	}
}

// TestClusterOptionValidation covers the layout options' error paths.
func TestClusterOptionValidation(t *testing.T) {
	if _, err := NewCluster(WithAPs(-1)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("WithAPs(-1) = %v, want ErrInvalidConfig", err)
	}
	if _, err := NewCluster(WithAPs(3), WithAPLayout(APPlacement{})); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("conflicting WithAPs/WithAPLayout = %v, want ErrInvalidConfig", err)
	}
	if _, err := NewCluster(WithInterferenceRadius(-1)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("negative interference radius = %v, want ErrInvalidConfig", err)
	}
	if _, err := NewCluster(WithAPLayout(APPlacement{X: math.Inf(1)})); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("non-finite AP placement = %v, want ErrInvalidConfig", err)
	}

	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Localize(context.Background(), NodeID(99)); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Localize(unknown) = %v, want ErrUnknownNode", err)
	}
	if _, err := c.Join(context.Background(), math.NaN(), 0, 0); !errors.Is(err, ErrInvalidCoordinate) {
		t.Errorf("Join(NaN) = %v, want ErrInvalidCoordinate", err)
	}
}
