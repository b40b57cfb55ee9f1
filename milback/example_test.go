package milback_test

import (
	"context"
	"fmt"
	"log"

	"repro/milback"
)

// Example shows the smallest complete round trip: join, localize, and
// exchange data both ways. Payloads decode error-free at 3 m, and the node
// spends 18 mW doing it.
func Example() {
	ctx := context.Background()
	c, err := milback.NewCluster(milback.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	node, err := c.Join(ctx, 3, 0.5, -10)
	if err != nil {
		log.Fatal(err)
	}
	up, err := c.Send(ctx, node, []byte("temperature=21.5C"), milback.Rate10Mbps)
	if err != nil {
		log.Fatal(err)
	}
	down, err := c.Deliver(ctx, node, []byte("setpoint=22.0C"), milback.Rate36Mbps)
	if err != nil {
		log.Fatal(err)
	}
	power, _ := c.Power(node, milback.ActivityDownlink, 0)
	fmt.Printf("uplink: %s (%d bit errors)\n", up.Data, up.BitErrors)
	fmt.Printf("downlink: %s (%d bit errors)\n", down.Data, down.BitErrors)
	fmt.Printf("node power: %.0f mW\n", power*1e3)
	// Output:
	// uplink: temperature=21.5C (0 bit errors)
	// downlink: setpoint=22.0C (0 bit errors)
	// node power: 18 mW
}

// ExampleCluster_Power reproduces the §9.6 headline numbers from the
// component power model.
func ExampleCluster_Power() {
	c, err := milback.NewCluster()
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	node, err := c.Join(context.Background(), 2, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	loc, _ := c.Power(node, milback.ActivityLocalization, 0)
	up, _ := c.Power(node, milback.ActivityUplink, milback.Rate40Mbps)
	fmt.Printf("localization/downlink: %.0f mW\n", loc*1e3)
	fmt.Printf("uplink at 40 Mbps: %.0f mW\n", up*1e3)
	fmt.Printf("uplink energy: %.1f nJ/bit\n", up/milback.Rate40Mbps*1e9)
	// Output:
	// localization/downlink: 18 mW
	// uplink at 40 Mbps: 32 mW
	// uplink energy: 0.8 nJ/bit
}

// ExampleCluster_Send_arq shows a CRC-checked transfer that retransmits a
// corrupted packet, up to three packets in all.
func ExampleCluster_Send_arq() {
	ctx := context.Background()
	c, err := milback.NewCluster(milback.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	node, err := c.Join(ctx, 2.5, 0, -10)
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Send(ctx, node, []byte("occupancy=3"), milback.Rate10Mbps, milback.WithARQ(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s in %d attempt(s)\n", res.Data, res.Attempts)
	// Output:
	// occupancy=3 in 1 attempt(s)
}

// ExampleCluster_Localize runs the §5 localization pipeline on its own:
// range, azimuth and the AP-side orientation estimate, all from one packet
// preamble's worth of chirps.
func ExampleCluster_Localize() {
	ctx := context.Background()
	c, err := milback.NewCluster(milback.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	node, err := c.Join(ctx, 3, 0.5, -10)
	if err != nil {
		log.Fatal(err)
	}
	pos, err := c.Localize(ctx, node)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range: %.2f m\n", pos.RangeM)
	fmt.Printf("orientation: %.1f°\n", pos.OrientationDeg)
	// Output:
	// range: 2.97 m
	// orientation: -10.4°
}

// ExampleCluster_Discover bootstraps a cell: the AP sweeps its beam and
// finds every joined node without being told where they are.
func ExampleCluster_Discover() {
	ctx := context.Background()
	c, err := milback.NewCluster(milback.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Join(ctx, 3, 0.5, 0); err != nil {
		log.Fatal(err)
	}
	if _, err := c.Join(ctx, 5, -1, 5); err != nil {
		log.Fatal(err)
	}
	dets, err := c.Discover(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d nodes\n", len(dets))
	for _, d := range dets {
		fmt.Printf("  ~%.1f m at %+.0f°\n", d.RangeM, d.AzimuthDeg)
	}
	// Output:
	// found 2 nodes
	//   ~5.1 m at -10°
	//   ~3.0 m at +8°
}

// ExampleCluster_Metrics reads the observability plane after some traffic:
// deterministic activity counters from the scheduler and the
// capture-buffer pool. (The timing histograms are wall-clock and
// vary run to run, so only their observation counts are shown.)
func ExampleCluster_Metrics() {
	ctx := context.Background()
	c, err := milback.NewCluster(milback.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	node, err := c.Join(ctx, 3, 0.5, -10)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.Localize(ctx, node); err != nil {
		log.Fatal(err)
	}
	if _, err := c.Send(ctx, node, []byte("hi"), milback.Rate10Mbps); err != nil {
		log.Fatal(err)
	}
	m := c.Metrics().PerAP[0].Metrics
	fmt.Printf("scheduled jobs: %d\n", m.QueueWait.Count)
	fmt.Printf("leases: %d opened, %d leaked\n", m.LeasesOpened, m.LeasesOpened-m.LeasesClosed)
	fmt.Printf("pool recycled a buffer: %v\n", m.PoolHits > 0)
	fmt.Printf("synthesize stage timed: %v\n", m.Synthesize.Count > 0)
	// Output:
	// scheduled jobs: 2
	// leases: 5 opened, 0 leaked
	// pool recycled a buffer: true
	// synthesize stage timed: true
}
