// Command milback-loadgen drives a running milback-serve daemon with a
// mixed workload at a controlled offered load and reports goodput and tail
// latency per load point.
//
//	milback-loadgen -target http://localhost:8080 -qps 10,25,50,100 \
//	    -duration 5s -mix localize=0.6,send=0.2,deliver=0.1,move=0.1 -nodes 8
//
// Flags:
//
//	-target       base URL of the milback-serve API
//	-qps          comma-separated open-loop offered-load sweep (ops/s)
//	-workers      closed-loop worker count (runs instead of the -qps sweep)
//	-duration     run length per load point
//	-mix          workload fractions: localize=F,send=F,deliver=F,move=F
//	-nodes        nodes to join before the run (spread across the cell)
//	-churn        fraction of nodes bound to looping trajectories; move ops
//	              on those nodes advance the trajectory instead of teleporting
//	-payload      payload size in bytes for send/deliver
//	-rate         bit rate for send/deliver (bits/s)
//	-seed         seed for the arrival schedule and workload picks
//	-max-inflight open-loop concurrency cap
//
// Each load point prints one report line ending in its op and failed-op
// counts ("(N ops, F failed, Ts)"), which scripts/serve_smoke.sh reads.
//
// Latency in open loop is measured from the intended (scheduled) arrival
// time, so queueing under overload is charged to the server, not hidden by
// a throttled generator. See docs/OPERATIONS.md for a worked walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	target := flag.String("target", "http://localhost:8080", "base URL of the milback-serve API")
	qpsList := flag.String("qps", "25", "comma-separated open-loop offered-load sweep (ops/s)")
	workers := flag.Int("workers", 0, "closed-loop worker count (runs instead of the -qps sweep)")
	duration := flag.Duration("duration", 5*time.Second, "run length per load point")
	mixSpec := flag.String("mix", "localize=0.6,send=0.2,deliver=0.1,move=0.1", "workload fractions: localize=F,send=F,deliver=F,move=F")
	nodes := flag.Int("nodes", 4, "nodes to join before the run")
	churn := flag.Float64("churn", 0, "fraction of nodes bound to looping trajectories (0..1)")
	payload := flag.Int("payload", 32, "payload size in bytes for send/deliver")
	rate := flag.Float64("rate", 10e6, "bit rate for send/deliver (bits/s)")
	seed := flag.Int64("seed", 1, "seed for the arrival schedule and workload picks")
	maxInflight := flag.Int("max-inflight", 256, "open-loop concurrency cap")
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		fatal(err)
	}
	if *nodes < 1 || *payload < 1 {
		fatal(fmt.Errorf("need -nodes >= 1 and -payload >= 1"))
	}

	ctx := context.Background()
	client := newClient(*target, *payload, *rate)
	if err := client.setup(ctx, *nodes, *churn, *seed); err != nil {
		fatal(fmt.Errorf("setting up %d nodes: %w", *nodes, err))
	}
	runner := &loadgen.Runner{
		Do:          client.do,
		Mix:         mix,
		Nodes:       *nodes,
		Seed:        *seed,
		MaxInFlight: *maxInflight,
	}

	if *workers > 0 {
		res, err := runner.Closed(ctx, *workers, *duration)
		if err != nil {
			fatal(err)
		}
		report(res)
		return
	}
	for _, tok := range strings.Split(*qpsList, ",") {
		qps, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || qps <= 0 {
			fatal(fmt.Errorf("bad -qps entry %q", tok))
		}
		res, err := runner.Open(ctx, qps, *duration)
		if err != nil {
			fatal(err)
		}
		report(res)
	}
}

func report(r loadgen.Result) {
	label := fmt.Sprintf("offered %7.1f/s", r.OfferedQPS)
	if r.Mode == "closed" {
		label = fmt.Sprintf("%d workers     ", r.Workers)
	}
	fmt.Printf("%s  goodput %7.1f/s  err %5.2f%%  p50 %8.3fms  p95 %8.3fms  p99 %8.3fms  (%d ops, %d failed, %.1fs)\n",
		label, r.GoodputQPS, 100*r.ErrorRate(),
		ms(r.Latency.P50), ms(r.Latency.P95), ms(r.Latency.P99),
		r.Ops, r.Errors, r.Elapsed.Seconds())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "milback-loadgen:", err)
	os.Exit(1)
}
