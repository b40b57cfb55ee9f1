package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/milback"
)

// fix is a returned position in the cluster frame, in meters.
type fix struct{ X, Y float64 }

// api is one depth at which the benchmark drives a cluster: HTTP to a
// served daemon or an in-process listener, serve.Server.ServeHTTP in
// memory, or the milback.Cluster methods themselves. Node ids are the
// cluster's NodeIDs.
type api interface {
	join(ctx context.Context, x, y float64) (uint64, error)
	setTrajectory(ctx context.Context, id uint64, wps []milback.Waypoint) error
	// discover runs one discovery sweep. A sweep that detects nothing has
	// still run: 1024 nodes packed into a few square meters often mask
	// each other from it.
	discover(ctx context.Context) error
	localize(ctx context.Context, id uint64) (fix, error)
	exchange(ctx context.Context, id uint64, uplink bool, data []byte) (fix, []byte, error)
	move(ctx context.Context, id uint64, x, y float64) error
	advance(ctx context.Context, id uint64, dt float64) (fix, error)
	metrics(ctx context.Context) (milback.ClusterMetrics, error)
}

// httpAPI speaks the milback-serve JSON API. do sends one request: an
// http.Client for a listener, or a handler call for the in-memory depth.
type httpAPI struct {
	base string
	do   func(*http.Request) (*http.Response, error)
}

// newHTTPClient returns a keep-alive client that holds at most conns
// connections, idle or busy, so a burst queues for a connection instead of
// opening a fresh one and charging the connect time to the server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// inMemory drives handler without a socket.
func inMemory(handler http.Handler) *httpAPI {
	return &httpAPI{base: "http://in-memory", do: func(r *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		return rec.Result(), nil
	}}
}

// call sends one JSON request and decodes a 200 answer into out (when
// non-nil); any other status is an error carrying the server's message.
func (a *httpAPI) call(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader = http.NoBody
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		_ = json.Unmarshal(data, &e) // the status alone is the error when the body is not JSON
		return fmt.Errorf("%s %s: %w", method, path, &statusError{resp.StatusCode, e.Error})
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// statusError is a non-200 answer.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return strconv.Itoa(e.code) + " " + e.msg }

func nodePath(id uint64, op string) string {
	return "/v1/nodes/" + strconv.FormatUint(id, 10) + "/" + op
}

func (a *httpAPI) join(ctx context.Context, x, y float64) (uint64, error) {
	var out serve.JoinResponse
	err := a.call(ctx, http.MethodPost, "/v1/nodes", serve.JoinRequest{X: x, Y: y, OrientationDeg: orientationDeg}, &out)
	return out.NodeID, err
}

func (a *httpAPI) setTrajectory(ctx context.Context, id uint64, wps []milback.Waypoint) error {
	req := serve.TrajectoryRequest{Waypoints: make([]serve.WaypointJSON, len(wps))}
	for i, w := range wps {
		req.Waypoints[i] = serve.WaypointJSON{T: w.T, X: w.X, Y: w.Y, Z: w.Z, OrientationDeg: w.OrientationDeg}
	}
	return a.call(ctx, http.MethodPut, nodePath(id, "trajectory"), req, nil)
}

func (a *httpAPI) discover(ctx context.Context) error {
	var out serve.DiscoverResponse
	err := a.call(ctx, http.MethodPost, "/v1/discover", nil, &out)
	if se := (*statusError)(nil); errors.As(err, &se) && se.code == http.StatusUnprocessableEntity {
		return nil // no detection
	}
	return err
}

func (a *httpAPI) localize(ctx context.Context, id uint64) (fix, error) {
	var out serve.PositionJSON
	err := a.call(ctx, http.MethodPost, nodePath(id, "localize"), nil, &out)
	return fix{out.X, out.Y}, err
}

func (a *httpAPI) exchange(ctx context.Context, id uint64, uplink bool, data []byte) (fix, []byte, error) {
	path := nodePath(id, "deliver")
	if uplink {
		path = nodePath(id, "send")
	}
	var out serve.ExchangeResponse
	err := a.call(ctx, http.MethodPost, path, serve.ExchangeRequest{Data: data, BitRate: bitRate}, &out)
	return fix{out.Position.X, out.Position.Y}, out.Data, err
}

func (a *httpAPI) move(ctx context.Context, id uint64, x, y float64) error {
	return a.call(ctx, http.MethodPost, nodePath(id, "move"), serve.MoveRequest{X: x, Y: y, OrientationDeg: orientationDeg}, nil)
}

func (a *httpAPI) advance(ctx context.Context, id uint64, dt float64) (fix, error) {
	var out serve.PoseResponse
	err := a.call(ctx, http.MethodPost, nodePath(id, "advance"), serve.AdvanceRequest{DT: dt}, &out)
	return fix{out.X, out.Y}, err
}

func (a *httpAPI) metrics(ctx context.Context) (milback.ClusterMetrics, error) {
	var out milback.ClusterMetrics
	err := a.call(ctx, http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}

// healthy reports whether /healthz answers "ok".
func (a *httpAPI) healthy(ctx context.Context) bool {
	var out serve.HealthResponse
	return a.call(ctx, http.MethodGet, "/healthz", nil, &out) == nil && out.Status == "ok"
}

// clusterAPI calls the milback.Cluster methods directly: the innermost
// depth, with no JSON and no HTTP.
type clusterAPI struct{ c *milback.Cluster }

func (a clusterAPI) join(ctx context.Context, x, y float64) (uint64, error) {
	id, err := a.c.Join(ctx, x, y, orientationDeg)
	return uint64(id), err
}

func (a clusterAPI) setTrajectory(ctx context.Context, id uint64, wps []milback.Waypoint) error {
	return a.c.SetTrajectory(ctx, milback.NodeID(id), milback.Trajectory{Waypoints: wps})
}

func (a clusterAPI) discover(ctx context.Context) error {
	if _, err := a.c.Discover(ctx); err != nil && !errors.Is(err, milback.ErrNoDetection) {
		return err
	}
	return nil
}

func (a clusterAPI) localize(ctx context.Context, id uint64) (fix, error) {
	p, err := a.c.Localize(ctx, milback.NodeID(id))
	return fix{p.X, p.Y}, err
}

func (a clusterAPI) exchange(ctx context.Context, id uint64, uplink bool, data []byte) (fix, []byte, error) {
	op := a.c.Deliver
	if uplink {
		op = a.c.Send
	}
	ex, err := op(ctx, milback.NodeID(id), data, bitRate)
	return fix{ex.Position.X, ex.Position.Y}, ex.Data, err
}

func (a clusterAPI) move(ctx context.Context, id uint64, x, y float64) error {
	return a.c.Move(ctx, milback.NodeID(id), x, y, orientationDeg)
}

func (a clusterAPI) advance(ctx context.Context, id uint64, dt float64) (fix, error) {
	p, err := a.c.AdvanceTrajectory(ctx, milback.NodeID(id), dt)
	return fix{p.X, p.Y}, err
}

func (a clusterAPI) metrics(context.Context) (milback.ClusterMetrics, error) {
	return a.c.Metrics(), nil
}

// serveEnv names the environment variable that turns the benchmark binary
// into the served daemon for the workload it names.
const serveEnv = "MILBACK_BENCH_SERVE"

// serveChild is the server process: what cmd/milback-serve does, on the
// workload's cluster layout (which its flags cannot express), listening on
// a free loopback port printed as the first line of standard output.
func serveChild(name string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	cluster, err := milback.NewCluster(w.clusterOptions()...)
	if err != nil {
		return err
	}
	d, err := serve.NewDaemon(cluster, serve.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		cluster.Close()
		return err
	}
	fmt.Println(d.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	return d.Run(sig)
}

// child is a running server process.
type child struct {
	cmd  *exec.Cmd
	addr string
}

// startChild execs the benchmark binary as the workload's server and
// waits for it to print its address.
func startChild(w *workload) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), serveEnv+"="+w.name)
	cmd.Stderr = os.Stderr
	// The server must not outlive a benchmark that dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	c := &child{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("reading server address: %w", err)
	}
	c.addr = strings.TrimSpace(line)
	return c, nil
}

// stop drains the server with SIGTERM, as a supervisor would, and waits
// for it to exit; a server still running after the grace period is killed.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return c.cmd.Wait()
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill() // Wait below reports the outcome
		<-done
		return errors.New("server did not drain within 10 s")
	}
}

// cpuSeconds reads the server's user+system CPU time from
// /proc/<pid>/stat. Linux reports it in USER_HZ ticks, 100 per second on
// every architecture Go supports.
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name, which may hold spaces:
	// utime and stime are the 12th and 13th.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks float64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return ticks / 100, nil
}
