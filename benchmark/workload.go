package main

import (
	"math"
	"time"

	"repro/internal/loadgen"
	"repro/milback"
)

// clusterSeed is the physics seed of every cluster the benchmark measures,
// the default of cmd/milback-serve. The workload seed shapes only the
// client's inputs.
const clusterSeed = 1

// bitRate is the send/deliver rate of every exchange: the paper's Fig 15a
// uplink rate.
const bitRate = milback.Rate10Mbps

// advanceDT is how far one move op advances a trajectory-bound node.
const advanceDT = 0.05

// orientationDeg is every node's facing, the value the serving smoke test
// and cmd/milback-loadgen use.
const orientationDeg = -10

// workload is one traffic shape offered to a served cluster.
type workload struct {
	name string
	// rate is the open-loop Poisson arrival rate in ops per second.
	rate float64
	mix  loadgen.Mix
	// payload is the send/deliver payload size in bytes.
	payload int
	// layout places the APs; nil is one AP at the origin. radius is the
	// co-channel interference radius for a multi-AP layout.
	layout []milback.APPlacement
	radius float64
	// nodes is the node count. place maps a point of the unit square to a
	// cluster-frame position; newSession spreads the nodes over the square.
	nodes int
	place func(u, v float64) (x, y float64)
	// bound is how many nodes (the first ones joined) follow looping
	// trajectories; move ops advance them instead of teleporting.
	bound int
	// teleport returns where the k-th teleport (k ≥ 1) of a node based at
	// (bx, by) and currently at (x, y) lands.
	teleport func(bx, by, x, y float64, k int) (float64, float64)
}

// roamX0, roamX1, roamY0 and roamY1 bound the roaming area in meters. The
// hash ring hands a cell to an AP whatever its angle to that AP. Mapped
// over x 2.5–7 m and y 0–6 m, fixes of nodes seen more than 55° off
// boresight missed by up to 1.45 m; inside this area every fix landed
// within 0.6 m.
const (
	roamX0, roamX1 = 2.5, 4.5
	roamY0, roamY1 = 2.0, 4.5
)

// workloads is the benchmark's fixed set, in reporting order.
// BENCHMARK.json gives each one's reason in a line, README.md in full.
// Each offers 100 ops/s, about a tenth of what the deployment serves back
// to back: a shared host that slows by half for minutes then still leaves
// the server mostly idle, so the median latency measures service time and
// not a queue that such a slowdown grows.
var workloads = []*workload{
	{
		name: "localize",
		rate: 100,
		mix:  loadgen.Mix{Localize: 1},
		// Payload unused: the mix has no exchanges.
		nodes: 8,
		place: polar(2, 4, 20),
	},
	{
		name: "roaming",
		rate: 100,
		mix:  loadgen.Mix{Localize: 0.5, Move: 0.5},
		layout: []milback.APPlacement{
			{X: 0, Y: 0}, {X: 0, Y: 2}, {X: 0, Y: 4}, {X: 0, Y: 6},
		},
		radius: 4.5,
		nodes:  32,
		place: func(u, v float64) (float64, float64) {
			return roamX0 + (roamX1-roamX0)*u, roamY0 + (roamY1-roamY0)*v
		},
		bound: 16,
		teleport: func(_, _, x, y float64, _ int) (float64, float64) {
			return x, roamY0 + math.Mod(y-roamY0+0.7, roamY1-roamY0)
		},
	},
	{
		name:    "fleet",
		rate:    100,
		mix:     loadgen.DefaultMix(),
		payload: 32,
		nodes:   1024,
		// 2–4 m like the others: farther out a 10 Mbps uplink packet
		// now and then loses its payload (1 in 30 000 at 4.7 m, 3 in
		// 10 000 past 5.5 m), and every op must succeed.
		place: polar(2, 4, 25),
		teleport: func(bx, by, _, _ float64, k int) (float64, float64) {
			return bx + 0.05*float64(k%5), by
		},
	},
}

// polar maps the unit square to ranges [rMin, rMax] meters and azimuths
// ±azDeg around the AP at the origin.
func polar(rMin, rMax, azDeg float64) func(u, v float64) (float64, float64) {
	return func(u, v float64) (float64, float64) {
		r := rMin + (rMax-rMin)*u
		az := (2*v - 1) * azDeg * math.Pi / 180
		return r * math.Cos(az), r * math.Sin(az)
	}
}

// spread draws n points of the unit square as a Latin hypercube: one point
// in each 1/n band of either coordinate, bands paired and points jittered
// by the seed. Every seed then covers the ranges and angles about evenly,
// so metrics that depend on where nodes stand, such as fix error, vary
// little from seed to seed.
func spread(rng *loadgen.RNG, n int) [][2]float64 {
	perm := func() []int {
		p := make([]int, n)
		for i := range p {
			j := int(rng.Uint64() % uint64(i+1))
			p[i], p[j] = p[j], i
		}
		return p
	}
	pu, pv := perm(), perm()
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{
			(float64(pu[i]) + rng.Float64()) / float64(n),
			(float64(pv[i]) + rng.Float64()) / float64(n),
		}
	}
	return pts
}

// workloadByName finds a workload, or returns nil.
func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// clusterOptions builds the workload's cluster exactly as a daemon would
// serve it.
func (w *workload) clusterOptions() []milback.Option {
	opts := []milback.Option{milback.WithSeed(clusterSeed)}
	if w.layout != nil {
		opts = append(opts, milback.WithAPLayout(w.layout...), milback.WithInterferenceRadius(w.radius))
	}
	return opts
}

// loopWaypoints is a bound node's trajectory: a 1 m square walked at 1 m/s
// from (x, y), turned so it stays inside the roaming area, repeated long
// enough that no run reaches its end. Every lap crosses 1 m ring cells, so
// advances hand the node between APs.
func loopWaypoints(x, y float64) []milback.Waypoint {
	const laps = 50
	dx, dy := 1.0, 1.0
	if x+dx > roamX1 {
		dx = -dx
	}
	if y+dy > roamY1 {
		dy = -dy
	}
	corners := [4][2]float64{{x, y}, {x + dx, y}, {x + dx, y + dy}, {x, y + dy}}
	wps := make([]milback.Waypoint, 0, 4*laps+1)
	for i := 0; i <= 4*laps; i++ {
		c := corners[i%4]
		wps = append(wps, milback.Waypoint{T: float64(i), X: c[0], Y: c[1], OrientationDeg: orientationDeg})
	}
	return wps
}

// op is one operation of a run, with its outcome. Times are offsets from
// the run's epoch.
type op struct {
	index   int
	phase   string
	kind    loadgen.OpKind
	node    int
	payload []byte

	due, sent, done time.Duration
	// fixErrM is the 2-D error of the fix the op returned, NaN if none.
	fixErrM float64
	err     error
}

// newOp draws one operation: kind, target node and, for exchanges, the
// payload bytes.
func (w *workload) newOp(rng *loadgen.RNG, index int) *op {
	o := &op{index: index, kind: w.mix.Pick(rng.Float64()), node: int(rng.Uint64() % uint64(w.nodes))}
	if o.kind == loadgen.OpSend || o.kind == loadgen.OpDeliver {
		o.payload = make([]byte, w.payload)
		for i := range o.payload {
			o.payload[i] = byte(rng.Uint64())
		}
	}
	return o
}

// schedule draws an open-loop phase: Poisson arrivals at the workload rate
// over length, indexed from first. Due times are offsets from the phase
// start until the phase runs.
func (w *workload) schedule(rng *loadgen.RNG, first int, length time.Duration) []*op {
	arr := loadgen.NewArrivals(rng, w.rate)
	var ops []*op
	for {
		at := arr.Next()
		if at >= length {
			return ops
		}
		o := w.newOp(rng, first+len(ops))
		o.due = at
		ops = append(ops, o)
	}
}
