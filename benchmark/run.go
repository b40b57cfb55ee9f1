package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/motion"
	"repro/internal/serve"
	"repro/milback"
)

// maxFixErrM is the correctness limit on a returned fix.
const maxFixErrM = 1.0

// replayOps is how many leading ops of a workload the traced run replays
// at each depth, time budget permitting.
const replayOps = 2000

// config shapes one workload run.
type config struct {
	// seconds is the measured time, split across the phases.
	seconds float64
	// trace selects the traced run, which reports the per-layer metrics.
	trace bool
	// setups is how many times the server is set up; setup_s is their
	// median and the last one is measured.
	setups int
}

// conns is the load generator's connection and worker count: one per CPU,
// so the generator never runs more threads or sockets than the host has
// CPUs.
var conns = runtime.NumCPU()

func (c config) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// nodeState is the client's view of one node: its id and ground truth.
type nodeState struct {
	// mu serializes the node's ops, as the cluster does, so the truth an
	// op is checked against is the one the server saw.
	mu        sync.Mutex
	id        uint64
	bx, by    float64 // joined position
	x, y      float64 // true position now
	path      *motion.Path
	t         float64 // motion time along path
	teleports int
}

// session is the client side of one cluster under test.
type session struct {
	w     *workload
	api   api
	nodes []*nodeState
	epoch time.Time
}

// newSession places the workload's nodes from the seed's placement stream.
func newSession(w *workload, a api, placeSeed int64, epoch time.Time) *session {
	s := &session{w: w, api: a, epoch: epoch}
	for _, p := range spread(loadgen.NewRNG(placeSeed), w.nodes) {
		x, y := w.place(p[0], p[1])
		s.nodes = append(s.nodes, &nodeState{bx: x, by: y, x: x, y: y})
	}
	return s
}

func (s *session) now() time.Duration { return time.Since(s.epoch) }

// setup joins every node, binds the trajectories, and runs one discovery
// sweep, returning how long the joins and the sweep took.
func (s *session) setup(ctx context.Context) (join, discover time.Duration, err error) {
	t0 := time.Now()
	for i, n := range s.nodes {
		if n.id, err = s.api.join(ctx, n.bx, n.by); err != nil {
			return 0, 0, fmt.Errorf("join: %w", err)
		}
		if i >= s.w.bound {
			continue
		}
		wps := loopWaypoints(n.bx, n.by)
		if err := s.api.setTrajectory(ctx, n.id, wps); err != nil {
			return 0, 0, fmt.Errorf("binding trajectory: %w", err)
		}
		mwps := make([]motion.Waypoint, len(wps))
		for j, w := range wps {
			mwps[j] = motion.Waypoint{T: w.T, X: w.X, Y: w.Y, OrientationDeg: w.OrientationDeg}
		}
		if n.path, err = motion.NewPath(mwps, motion.Linear); err != nil {
			return 0, 0, err
		}
	}
	join = time.Since(t0)
	t1 := time.Now()
	if err := s.api.discover(ctx); err != nil {
		return 0, 0, fmt.Errorf("discover: %w", err)
	}
	return join, time.Since(t1), nil
}

// errPayload marks an exchange whose returned data differs from what was
// sent.
var errPayload = errors.New("exchanged data differs from the payload")

// run executes o and records its times and outcome.
func (s *session) run(ctx context.Context, o *op) {
	n := s.nodes[o.node]
	n.mu.Lock()
	defer n.mu.Unlock()
	o.sent = s.now()
	o.fixErrM, o.err = s.exec(ctx, n, o)
	o.done = s.now()
}

// exec performs one op on n (whose lock the caller holds) and checks the
// answer against the client's ground truth.
func (s *session) exec(ctx context.Context, n *nodeState, o *op) (fixErrM float64, err error) {
	var f fix
	switch o.kind {
	case loadgen.OpLocalize:
		if f, err = s.api.localize(ctx, n.id); err != nil {
			return math.NaN(), err
		}
	case loadgen.OpSend, loadgen.OpDeliver:
		var data []byte
		if f, data, err = s.api.exchange(ctx, n.id, o.kind == loadgen.OpSend, o.payload); err != nil {
			return math.NaN(), err
		}
		if !bytes.Equal(data, o.payload) {
			return math.NaN(), errPayload
		}
	case loadgen.OpMove:
		return math.NaN(), s.move(ctx, n)
	}
	e := math.Hypot(f.X-n.x, f.Y-n.y)
	if !(e <= maxFixErrM) {
		return e, fmt.Errorf("fix (%.2f, %.2f) is %.2f m from the truth (%.2f, %.2f)", f.X, f.Y, e, n.x, n.y)
	}
	return e, nil
}

// move advances a trajectory-bound node, or teleports any other one.
func (s *session) move(ctx context.Context, n *nodeState) error {
	if n.path != nil {
		got, err := s.api.advance(ctx, n.id, advanceDT)
		if err != nil {
			return err
		}
		n.t += advanceDT
		want := n.path.PoseAt(n.t)
		n.x, n.y = want.X, want.Y
		if math.Hypot(got.X-want.X, got.Y-want.Y) > 1e-9 {
			return fmt.Errorf("advance returned (%g, %g), want (%g, %g)", got.X, got.Y, want.X, want.Y)
		}
		return nil
	}
	x, y := s.w.teleport(n.bx, n.by, n.x, n.y, n.teleports+1)
	if err := s.api.move(ctx, n.id, x, y); err != nil {
		return err
	}
	n.teleports++
	n.x, n.y = x, y
	return nil
}

// openLoop dispatches ops when due (their due offsets count from the call)
// to conns workers and returns how late each dispatch was. Latency is
// charged from the due time, so a stalled server or generator shows up in
// the tail.
func (s *session) openLoop(ctx context.Context, ops []*op) ([]time.Duration, error) {
	start := s.now()
	// Sized to the whole phase, so dispatch never waits for a busy worker.
	queue := make(chan *op, len(ops))
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				s.run(ctx, o)
			}
		}()
	}
	late := make([]time.Duration, 0, len(ops))
	for _, o := range ops {
		o.due += start
		// time.Sleep rounds a sub-millisecond wait up to the runtime's
		// millisecond poll tick, half a millisecond late on average;
		// nanosleep wakes within about 0.1 ms. A signal cuts it short, so
		// sleep again until the op is due.
		for wait := o.due - s.now(); wait > 0; wait = o.due - s.now() {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		if ctx.Err() != nil {
			break
		}
		late = append(late, s.now()-o.due)
		queue <- o
	}
	close(queue)
	wg.Wait()
	return late, ctx.Err()
}

// closedLoop runs conns workers issuing ops back to back for length, each
// drawing from its own stream rooted at seed, and returns every op issued,
// indexed from first.
func (s *session) closedLoop(ctx context.Context, length time.Duration, seed int64, first int) ([]*op, error) {
	end := s.now() + length
	var next atomic.Int64
	next.Store(int64(first))
	lists := make([][]*op, conns)
	var wg sync.WaitGroup
	for wk := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := loadgen.NewRNG(seed + int64(wk))
			for ctx.Err() == nil && s.now() < end {
				o := s.w.newOp(rng, int(next.Add(1)-1))
				o.phase = "closed"
				o.due = s.now()
				s.run(ctx, o)
				lists[wk] = append(lists[wk], o)
			}
		}()
	}
	wg.Wait()
	var ops []*op
	for _, l := range lists {
		ops = append(ops, l...)
	}
	return ops, ctx.Err()
}

// setupTimes is one server set-up, split as the per-layer metrics need.
type setupTimes struct {
	total, ready, join, discover time.Duration
}

// setupServer starts the workload's server and brings it to the measured
// state: healthy, every node joined and bound, one discovery sweep done.
func setupServer(ctx context.Context, w *workload, placeSeed int64) (*child, *session, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	c, err := startChild(w)
	if err != nil {
		return nil, nil, st, err
	}
	a := &httpAPI{base: "http://" + c.addr, do: newHTTPClient(conns).Do}
	for !a.healthy(ctx) {
		if ctx.Err() != nil || time.Since(t0) > 30*time.Second {
			c.stop()
			return nil, nil, st, errors.New("server never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
	st.ready = time.Since(t0)
	s := newSession(w, a, placeSeed, t0)
	if st.join, st.discover, err = s.setup(ctx); err != nil {
		c.stop()
		return nil, nil, st, err
	}
	st.total = time.Since(t0)
	return c, s, st, nil
}

// measurement is one workload run in progress.
type measurement struct {
	w      *workload
	cfg    config
	s      *session
	c      *child
	setups []setupTimes
	res    *result
	// opRNG draws the open-loop schedules, phase after phase; closedRNG
	// seeds the closed-loop workers' streams, round after round; placeSeed
	// seeds the placements.
	opRNG     *loadgen.RNG
	closedRNG *loadgen.RNG
	placeSeed int64
}

// runWorkload measures one workload against a served child process and
// returns its end-to-end metrics, or with cfg.trace its per-layer metrics.
func runWorkload(ctx context.Context, w *workload, seed int64, cfg config) (*result, error) {
	root := loadgen.NewRNG(seed)
	m := &measurement{
		w:         w,
		cfg:       cfg,
		res:       newResult(w.name),
		placeSeed: int64(root.Uint64()),
		opRNG:     loadgen.NewRNG(int64(root.Uint64())),
		closedRNG: loadgen.NewRNG(int64(root.Uint64())),
	}
	for i := range cfg.setups {
		c, s, st, err := setupServer(ctx, w, m.placeSeed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setups = append(m.setups, st)
		if i == cfg.setups-1 {
			m.c, m.s = c, s
		} else if err := c.stop(); err != nil {
			return nil, fmt.Errorf("stopping server: %w", err)
		}
	}
	var err error
	if cfg.trace {
		err = m.traced(ctx)
	} else {
		err = m.untraced(ctx)
	}
	if stopErr := m.c.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping server: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	return m.res, nil
}

// phase draws and runs one open-loop phase of the given share of the run.
func (m *measurement) phase(ctx context.Context, name string, first int, share float64) ([]*op, []time.Duration, error) {
	ops := m.w.schedule(m.opRNG, first, m.cfg.share(share))
	for _, o := range ops {
		o.phase = name
	}
	late, err := m.s.openLoop(ctx, ops)
	return ops, late, err
}

// roundSeconds is the length the untraced run aims at for one round: an
// open-loop slice at the workload rate, then a closed-loop slice at
// saturation. openShare is the open-loop slice's share of a round.
const (
	roundSeconds = 2.0
	openShare    = 0.6
)

// round is one round of the untraced run.
type round struct {
	open, closed []*op
	// closedEnd is when the closed-loop slice, closedLen long, ended;
	// cpuS is the server's CPU time over the open-loop slice.
	closedEnd, closedLen time.Duration
	cpuS                 float64
}

// untraced is the measured run: warm-up, then rounds that alternate an
// open loop at the workload rate with a closed loop at saturation. A
// shared host's speed swings by tens of percent from one second to the
// next, so the loops take turns throughout the run instead of each
// measuring one stretch of it.
func (m *measurement) untraced(ctx context.Context) error {
	warm, _, err := m.phase(ctx, "warmup", 0, 0.1)
	if err != nil {
		return err
	}
	m.res.add(warm)
	n := max(1, int(math.Round(0.9*m.cfg.seconds/roundSeconds)))
	share := 0.9 / float64(n)
	next := len(warm)
	rounds := make([]round, 0, n)
	for range n {
		var rd round
		cpu0, err := m.c.cpuSeconds()
		if err != nil {
			return err
		}
		if rd.open, _, err = m.phase(ctx, "open", next, openShare*share); err != nil {
			return err
		}
		cpu1, err := m.c.cpuSeconds()
		if err != nil {
			return err
		}
		rd.cpuS = cpu1 - cpu0
		next += len(rd.open)
		rd.closedLen = m.cfg.share((1 - openShare) * share)
		rd.closedEnd = m.s.now() + rd.closedLen
		if rd.closed, err = m.s.closedLoop(ctx, rd.closedLen, int64(m.closedRNG.Uint64()), next); err != nil {
			return err
		}
		next += len(rd.closed)
		m.res.add(rd.open, rd.closed)
		rounds = append(rounds, rd)
	}
	m.res.endToEnd(m.setups, rounds)
	return nil
}

// traced is the per-layer run: warm-up, an untraced and a traced open
// loop (their p50 difference is the tracing overhead), /v1/metrics
// snapshots around the traced phase, and replays of the leading ops at
// three depths.
func (m *measurement) traced(ctx context.Context) error {
	warm, _, err := m.phase(ctx, "warmup", 0, 0.1)
	if err != nil {
		return err
	}
	plain, late1, err := m.phase(ctx, "open", len(warm), 0.25)
	if err != nil {
		return err
	}
	before, err := m.s.api.metrics(ctx)
	if err != nil {
		return err
	}
	m.res.snapshot("open-traced.start", m.s.now(), before)
	t0 := m.s.now()
	tracedOps, late2, err := m.phase(ctx, "open-traced", len(warm)+len(plain), 0.25)
	if err != nil {
		return err
	}
	wall := m.s.now() - t0
	after, err := m.s.api.metrics(ctx)
	if err != nil {
		return err
	}
	m.res.snapshot("open-traced.end", m.s.now(), after)
	m.res.add(warm, plain, tracedOps)

	leading := append(append(append([]*op(nil), warm...), plain...), tracedOps...)
	reps, err := replays(ctx, m.w, m.placeSeed, m.s.epoch, leading, m.cfg.share(0.4))
	if err != nil {
		return err
	}
	for _, r := range reps {
		m.res.add(r.ops)
	}
	m.res.perLayer(m.setups, plain, tracedOps, append(late1, late2...), before, after, wall, reps)
	return nil
}

// replay is one depth's re-run of a workload's leading ops.
type replay struct {
	depth   string
	cluster *milback.Cluster
	s       *session
	close   func()
	ops     []*op
	// before and after bracket the replay with the cluster's metrics.
	before, after milback.ClusterMetrics
}

// replays re-runs the leading ops with one caller at three depths, each
// on a fresh in-process cluster set up like the served one: HTTP to a
// serve.Server listener, serve.Server.ServeHTTP in memory, and the
// milback.Cluster methods. The depths take turns op by op, so drift in
// the host's speed reaches all three alike. The replay stops after
// replayOps ops or when budget runs out.
func replays(ctx context.Context, w *workload, placeSeed int64, epoch time.Time, leading []*op, budget time.Duration) ([]*replay, error) {
	var reps []*replay
	defer func() {
		for _, r := range reps {
			r.close()
		}
	}()
	for _, depth := range []string{"http", "handler", "cluster"} {
		r, err := newReplay(ctx, w, placeSeed, epoch, depth)
		if err != nil {
			return nil, fmt.Errorf("replay at %s depth: %w", depth, err)
		}
		reps = append(reps, r)
	}
	for _, r := range reps {
		r.before = r.cluster.Metrics()
	}
	start := time.Now()
	for _, tmpl := range leading[:min(len(leading), replayOps)] {
		if time.Since(start) > budget {
			break
		}
		for _, r := range reps {
			o := &op{index: tmpl.index, phase: "replay-" + r.depth, kind: tmpl.kind, node: tmpl.node, payload: tmpl.payload}
			o.due = r.s.now()
			r.s.run(ctx, o)
			r.ops = append(r.ops, o)
		}
	}
	for _, r := range reps {
		r.after = r.cluster.Metrics()
	}
	return reps, ctx.Err()
}

// newReplay builds and sets up one depth's cluster.
func newReplay(ctx context.Context, w *workload, placeSeed int64, epoch time.Time, depth string) (*replay, error) {
	cluster, err := milback.NewCluster(w.clusterOptions()...)
	if err != nil {
		return nil, err
	}
	r := &replay{depth: depth, cluster: cluster, close: cluster.Close}
	var a api = clusterAPI{cluster}
	switch depth {
	case "http":
		srv := httptest.NewServer(serve.NewServer(cluster, nil))
		r.close = func() { srv.Close(); cluster.Close() }
		a = &httpAPI{base: srv.URL, do: newHTTPClient(1).Do}
	case "handler":
		a = inMemory(serve.NewServer(cluster, nil))
	}
	r.s = newSession(w, a, placeSeed, epoch)
	if _, _, err := r.s.setup(ctx); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}
