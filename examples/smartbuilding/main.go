// Smart building: the "operations" example. The AP bootstraps its cell with
// a discovery scan (no prior knowledge of node positions), adapts each
// node's uplink rate to its link budget, moves occupancy data with
// CRC-checked ARQ transfers, and rides out a human blocker walking through
// a link — demonstrating detection of the outage and recovery once the
// person moves on.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/milback"
)

func main() {
	c, err := milback.NewCluster(milback.WithSeed(17))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// Battery-free occupancy sensors, placed by an installer who never
	// recorded where.
	placements := [][3]float64{
		{2.2, -0.8, 10},
		{3.8, 0.6, -15},
		{5.5, -1.5, 5},
		{7.0, 1.8, -20},
	}
	nodes := make([]milback.NodeID, len(placements))
	for i, p := range placements {
		n, err := c.Join(ctx, p[0], p[1], p[2])
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = n
	}

	// 1. Discovery: one beam sweep finds everyone.
	fmt.Println("== discovery scan ==")
	dets, err := c.Discover(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for i, d := range dets {
		fmt.Printf("node %d found at (%.2f, %.2f) m, %.1f dB\n", i, d.X, d.Y, d.SNRdB)
	}

	// 2. Rate adaptation + reliable polling.
	fmt.Println("\n== adaptive reliable polling ==")
	for i, n := range nodes {
		rate, ok, err := c.BestUplinkRate(ctx, n)
		if err != nil {
			log.Fatal(err)
		}
		report := []byte(fmt.Sprintf("room-%d occupancy=%d", i, (i*3)%5))
		res, err := c.Send(ctx, n, report, rate, milback.WithARQ(3))
		if err != nil {
			log.Fatalf("node %d: %v", i, err)
		}
		fmt.Printf("node %d: %-22q at %3.0f Mbps (target met: %v, attempts %d, %.1f µJ)\n",
			i, res.Data, rate/1e6, ok, res.Attempts, res.NodeEnergyJ*1e6)
	}

	// 3. Blockage: a person walks between the AP and node 2.
	fmt.Println("\n== blockage event ==")
	if err := c.AddBlocker(ctx, "visitor", 2.5, -1.2, 2.5, -0.3, 30); err != nil {
		log.Fatal(err)
	}
	if _, err := c.Send(ctx, nodes[2], []byte("ping"), milback.Rate10Mbps, milback.WithARQ(2)); err != nil {
		fmt.Println("node 2 unreachable while blocked:", err)
	} else {
		fmt.Println("node 2 survived the blocker (unexpected at 30 dB)")
	}
	// Other bearings unaffected.
	if _, err := c.Send(ctx, nodes[0], []byte("ping"), milback.Rate10Mbps, milback.WithARQ(2)); err != nil {
		log.Fatalf("node 0 should be unaffected: %v", err)
	}
	fmt.Println("node 0 unaffected by the blocker")

	if _, err := c.RemoveBlocker(ctx, "visitor"); err != nil {
		log.Fatal(err)
	}
	res, err := c.Send(ctx, nodes[2], []byte("ping"), milback.Rate10Mbps, milback.WithARQ(2))
	if err != nil {
		log.Fatalf("node 2 should recover: %v", err)
	}
	fmt.Printf("node 2 recovered after the visitor left (%q, attempts %d)\n", res.Data, res.Attempts)
}
