package milback

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rfsim"
)

// overlapRounds is how many times each node of TestOverlapMatchesOneByOne
// runs its operation sequence.
const overlapRounds = 4

// overlapNode places node i of the overlap test: eight nodes spread over
// ±25° of azimuth at 2.4–3.4 m, the even ones on a radial trajectory.
func overlapNode(i int) (x, y, orient float64, tr *Trajectory) {
	az := rfsim.DegToRad(-25 + 50*float64(i)/7)
	r := 2.4 + 0.15*float64(i%7)
	// Clear of the ground-plane mirror window around −4° (DESIGN.md §4.4),
	// where a single fix can miss.
	orient = [...]float64{-12, 8, 10, -10, 6, 12, -14, 9}[i]
	p := rfsim.PolarPoint(r, az)
	if i%2 == 1 {
		return p.X, p.Y, orient, nil
	}
	q := rfsim.PolarPoint(r+0.6, az)
	return p.X, p.Y, orient, &Trajectory{Waypoints: []Waypoint{
		{T: 0, X: p.X, Y: p.Y, OrientationDeg: orient},
		{T: 2, X: q.X, Y: q.Y, OrientationDeg: orient + 2},
	}}
}

// overlapCluster builds the overlap test's one-AP cluster: the same seed,
// nodes and trajectories every time.
func overlapCluster(t *testing.T) (*Cluster, []NodeID) {
	t.Helper()
	ctx := context.Background()
	c := newTestCluster(t, WithSeed(11))
	ids := make([]NodeID, 8)
	for i := range ids {
		x, y, orient, tr := overlapNode(i)
		ids[i] = mustJoin(t, c, x, y, orient)
		if tr != nil {
			if err := c.SetTrajectory(ctx, ids[i], *tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c, ids
}

// overlapResult is what one op of the overlap test observed: its kind,
// its value (a Position, an Exchange, a Pose or nothing) and its error as
// text ("" for none).
type overlapResult struct {
	Op    string
	Value any
	Err   string
}

// overlapOps returns node i's operation sequence on c: per round a fix, a
// 32 B uplink and a 32 B downlink at 10 Mbps, then for a static node a
// small move, and for a node on a trajectory an advance along it, a move,
// which unbinds the trajectory, and a fresh bind.
func overlapOps(c *Cluster, id NodeID, i int) []func() overlapResult {
	ctx := context.Background()
	x, y, orient, tr := overlapNode(i)
	payload := func(dir, round int) []byte {
		p := make([]byte, 32)
		for k := range p {
			p[k] = byte(31*i + 7*k + 101*dir + 13*round)
		}
		return p
	}
	result := func(op string, v any, err error) overlapResult {
		r := overlapResult{Op: op, Value: v}
		if err != nil {
			r.Err = err.Error()
		}
		return r
	}
	var ops []func() overlapResult
	for r := 0; r < overlapRounds; r++ {
		ops = append(ops,
			func() overlapResult {
				p, err := c.Localize(ctx, id)
				return result("localize", p, err)
			},
			func() overlapResult {
				ex, err := c.Send(ctx, id, payload(0, r), Rate10Mbps)
				return result("send", ex, err)
			},
			func() overlapResult {
				ex, err := c.Deliver(ctx, id, payload(1, r), Rate10Mbps)
				return result("deliver", ex, err)
			})
		step := 0.05 * float64(r+1)
		move := func() overlapResult {
			return result("move", nil, c.Move(ctx, id, x+step, y-step, orient+1))
		}
		if tr == nil {
			ops = append(ops, move)
			continue
		}
		// The move unbinds the trajectory; bind it again from its start.
		ops = append(ops, func() overlapResult {
			pose, err := c.AdvanceTrajectory(ctx, id, 0.4)
			return result("advance", pose, err)
		}, move, func() overlapResult {
			return result("bind", nil, c.SetTrajectory(ctx, id, *tr))
		})
	}
	return ops
}

// TestOverlapMatchesOneByOne pins that node jobs running side by side on
// one AP give exactly the results of running them one at a time: eight
// nodes across ±25° of azimuth, half on trajectories, each run a fixed
// sequence of fixes, uplinks, downlinks, moves and trajectory advances on
// its own goroutine, and every result — fixes bit for bit, payloads byte
// for byte — equals the same sequences run one op at a time, round robin,
// on a fresh cluster of the same seed. Shared AP state read by a job on
// behalf of another node (a beam pointing, a clutter scratch slice, a
// capture lease's lifetime, the trajectory table) shows up here as a
// differing result or, under -race, as a data race.
func TestOverlapMatchesOneByOne(t *testing.T) {
	serial, serialIDs := overlapCluster(t)
	want := make([][]overlapResult, len(serialIDs))
	opsOf := make([][]func() overlapResult, len(serialIDs))
	longest := 0
	for i, id := range serialIDs {
		opsOf[i] = overlapOps(serial, id, i)
		longest = max(longest, len(opsOf[i]))
	}
	for k := 0; k < longest; k++ {
		for i := range opsOf {
			if k < len(opsOf[i]) {
				want[i] = append(want[i], opsOf[i][k]())
			}
		}
	}
	// One by one, every op succeeds and every payload arrives intact, so an
	// op another node's job disturbs cannot fail the same way in both runs.
	for i := range want {
		for k, res := range want[i] {
			if res.Err != "" {
				t.Fatalf("one by one, node %d op %d %s failed: %s", i, k, res.Op, res.Err)
			}
			if ex, ok := res.Value.(Exchange); ok && ex.BitErrors != 0 {
				t.Fatalf("one by one, node %d op %d %s: %d bit errors", i, k, res.Op, ex.BitErrors)
			}
		}
	}

	c, ids := overlapCluster(t)
	got := make([][]overlapResult, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range overlapOps(c, id, i) {
				got[i] = append(got[i], op())
			}
		}()
	}
	wg.Wait()

	for i := range want {
		for k := range want[i] {
			if !reflect.DeepEqual(got[i][k], want[i][k]) {
				t.Errorf("node %d op %d side by side:\n  %+v\none by one:\n  %+v", i, k, got[i][k], want[i][k])
			}
		}
	}
}
