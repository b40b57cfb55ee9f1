// Command milback-sim runs a free-form MilBack scenario: place a node, run
// the full localization + orientation pipeline, and exchange a payload in
// both directions, printing every estimate against its ground truth.
//
//	milback-sim -x 3 -y 0.5 -orient -10 -msg "hello" -rate 10e6
//
// Flags:
//
//	-x, -y        node position in meters (AP at origin facing +x)
//	-orient       node orientation in degrees (0 = facing the AP)
//	-msg          payload text to exchange
//	-rate         uplink bit rate (downlink runs at 36 Mbps)
//	-seed         random seed
//	-anechoic     remove the indoor clutter
//	-debug-addr   serve /debug/vars and /debug/pprof on this address
//	-trace        write the pipeline-stage trace (JSON Lines) to this file
//
// The diagnostics flags write only to stderr and to their own outputs, so
// stdout stays byte-identical for a fixed seed whether or not they are set.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/milback"
)

func main() {
	x := flag.Float64("x", 3, "node x (m)")
	y := flag.Float64("y", 0.5, "node y (m)")
	orient := flag.Float64("orient", -10, "node orientation (deg)")
	msg := flag.String("msg", "hello milback", "payload text")
	rate := flag.Float64("rate", milback.Rate10Mbps, "uplink bit rate (bits/s)")
	seed := flag.Int64("seed", 1, "random seed")
	anechoic := flag.Bool("anechoic", false, "remove indoor clutter")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	tracePath := flag.String("trace", "", "write the pipeline-stage trace as JSON Lines to this file")
	flag.Parse()

	opts := []milback.Option{milback.WithSeed(*seed)}
	if *anechoic {
		opts = append(opts, milback.WithEmptyScene())
	}
	if *debugAddr != "" {
		opts = append(opts, milback.WithDebugServer(*debugAddr))
	}
	c, err := milback.NewCluster(opts...)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	if *debugAddr != "" {
		fmt.Fprintf(os.Stderr, "milback-sim: debug server on http://%s/debug/vars\n", c.DebugAddr())
	}
	if *tracePath != "" {
		defer writeTrace(c, *tracePath)
	}
	ctx := context.Background()
	id, err := c.Join(ctx, *x, *y, *orient)
	if err != nil {
		fatal(err)
	}
	trueRange := math.Hypot(*x, *y)
	trueAz := 180 / math.Pi * math.Atan2(*y, *x)
	fmt.Printf("node placed at (%.2f, %.2f) m — range %.3f m, azimuth %.2f°, orientation %.1f°\n\n",
		*x, *y, trueRange, trueAz, *orient)

	pos, err := c.Localize(ctx, id)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== localization (§5) ==")
	fmt.Printf("range:        %8.3f m   (true %.3f, err %+.1f cm)\n", pos.RangeM, trueRange, (pos.RangeM-trueRange)*100)
	fmt.Printf("azimuth:      %8.2f °   (true %.2f, err %+.2f°)\n", pos.AzimuthDeg, trueAz, pos.AzimuthDeg-trueAz)
	fmt.Printf("orientation:  %8.2f °   (true %.1f, err %+.2f°)\n", pos.OrientationDeg, *orient, pos.OrientationDeg-*orient)

	selfOrient, err := c.Orientation(ctx, id)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("node's own estimate: %.2f° (err %+.2f°)\n\n", selfOrient, selfOrient-*orient)

	payload := []byte(*msg)
	up, err := c.Send(ctx, id, payload, *rate)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== uplink (§6.3) ==")
	fmt.Printf("sent %d bytes at %.0f Mbps: %q\n", len(payload), *rate/1e6, up.Data)
	fmt.Printf("bit errors: %d/%d (BER %.2g), link SNR %.1f dB\n", up.BitErrors, up.BitsSent, up.BER(), up.SNRdB)
	fmt.Printf("packet airtime %.1f µs, node energy %.2f µJ\n\n", up.AirtimeS*1e6, up.NodeEnergyJ*1e6)

	down, err := c.Deliver(ctx, id, payload, milback.Rate36Mbps)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== downlink (§6.1) ==")
	fmt.Printf("delivered %d bytes at 36 Mbps: %q\n", len(payload), down.Data)
	fmt.Printf("bit errors: %d/%d (BER %.2g), node SINR %.1f dB\n", down.BitErrors, down.BitsSent, down.BER(), down.SNRdB)
	fmt.Printf("packet airtime %.1f µs, node energy %.2f µJ\n\n", down.AirtimeS*1e6, down.NodeEnergyJ*1e6)

	upP, _ := c.Power(id, milback.ActivityUplink, *rate)
	downP, _ := c.Power(id, milback.ActivityDownlink, 0)
	fmt.Printf("node power: %.1f mW uplink, %.1f mW downlink/localization (§9.6)\n", upP*1e3, downP*1e3)

	st := c.Stats()
	fmt.Printf("network stats: %d exchanges, %d/%d bit errors, %.1f µs total airtime\n",
		st.Exchanges, st.BitErrors, st.BitsSent, st.AirtimeS*1e6)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "milback-sim:", err)
	os.Exit(1)
}

// writeTrace dumps the cluster's retained spans to path. Runs as a deferred
// cleanup, so failures warn on stderr rather than aborting.
func writeTrace(c *milback.Cluster, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "milback-sim: trace:", err)
		return
	}
	defer f.Close()
	if err := c.WriteTrace(f); err != nil {
		fmt.Fprintln(os.Stderr, "milback-sim: trace:", err)
	}
}
