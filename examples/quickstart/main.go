// Quickstart: the smallest complete MilBack program — join one node,
// localize it, and exchange a message in both directions.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/milback"
)

func main() {
	// A cluster with no layout options is one access point in a cluttered
	// indoor room. Close shuts its airtime scheduler; later calls fail.
	c, err := milback.NewCluster(milback.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// A backscatter node 3 m away, slightly off to the side, rotated −10°.
	node, err := c.Join(ctx, 3, 0.5, -10)
	if err != nil {
		log.Fatal(err)
	}

	// Localization: FMCW ranging + angle-of-arrival + orientation sensing,
	// all from the node's switched reflection (the node spends 18 mW).
	pos, err := c.Localize(ctx, node)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node found at (%.2f, %.2f) m, %.1f° orientation\n",
		pos.X, pos.Y, pos.OrientationDeg)

	// Uplink: the node piggybacks its data on the AP's two-tone query.
	up, err := c.Send(ctx, node, []byte("temperature=21.5C"), milback.Rate10Mbps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uplink:   %q  (%d bit errors, SNR %.1f dB)\n", up.Data, up.BitErrors, up.SNRdB)

	// Downlink: the AP keys its two tones on and off (OAQFM); the node
	// decodes with nothing but envelope detectors.
	down, err := c.Deliver(ctx, node, []byte("setpoint=22.0C"), milback.Rate36Mbps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("downlink: %q  (%d bit errors, SINR %.1f dB)\n", down.Data, down.BitErrors, down.SNRdB)

	// Every call takes a ctx, which cancels it or bounds it with a
	// deadline while the operation waits for the AP's beam.
	tctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := c.Send(tctx, node, []byte("ack"), milback.Rate10Mbps); err != nil {
		log.Fatal(err)
	}

	st := c.Stats()
	fmt.Printf("stats: %d exchanges, %.1f µs airtime\n", st.Exchanges, st.AirtimeS*1e6)
}
