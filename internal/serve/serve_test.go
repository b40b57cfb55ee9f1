package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/milback"
)

func newTestCluster(t *testing.T) *milback.Cluster {
	t.Helper()
	c, err := milback.NewCluster(milback.WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func postJSON(t *testing.T, url string, body, out any) (int, string) {
	t.Helper()
	return doJSON(t, http.MethodPost, url, body, out)
}

func doJSON(t *testing.T, method, url string, body, out any) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ""
}

// TestServerSessionAPI walks the whole HTTP surface once against a live
// cluster: join, localize, send, deliver, move, trajectory, clock, stats,
// discover, health.
func TestServerSessionAPI(t *testing.T) {
	cluster := newTestCluster(t)
	defer cluster.Close()
	ts := httptest.NewServer(NewServer(cluster, nil))
	defer ts.Close()

	var join JoinResponse
	if code, msg := postJSON(t, ts.URL+"/v1/nodes", JoinRequest{X: 2, Y: 0, OrientationDeg: -10}, &join); code != 200 {
		t.Fatalf("join: %d %s", code, msg)
	}
	node := fmt.Sprintf("%s/v1/nodes/%d", ts.URL, join.NodeID)

	var pos PositionJSON
	if code, msg := postJSON(t, node+"/localize", nil, &pos); code != 200 {
		t.Fatalf("localize: %d %s", code, msg)
	}
	if pos.RangeM < 1.5 || pos.RangeM > 2.5 {
		t.Errorf("range %.2f m, want ~2", pos.RangeM)
	}

	var ex ExchangeResponse
	payload := []byte("hello backscatter")
	if code, msg := postJSON(t, node+"/send", ExchangeRequest{Data: payload, BitRate: 10e6}, &ex); code != 200 {
		t.Fatalf("send: %d %s", code, msg)
	}
	if ex.BitsSent != len(payload)*8 {
		t.Errorf("bits sent %d, want %d", ex.BitsSent, len(payload)*8)
	}
	if code, msg := postJSON(t, node+"/deliver", ExchangeRequest{Data: []byte{1, 2, 3}, BitRate: 36e6}, &ex); code != 200 {
		t.Fatalf("deliver: %d %s", code, msg)
	}

	if code, msg := postJSON(t, node+"/move", MoveRequest{X: 2.5, Y: 0.2, OrientationDeg: 0}, nil); code != 200 {
		t.Fatalf("move: %d %s", code, msg)
	}

	traj := TrajectoryRequest{Waypoints: []WaypointJSON{
		{T: 0, X: 2.5, Y: 0.2}, {T: 5, X: 3, Y: 0.2},
	}}
	if code, msg := doJSON(t, http.MethodPut, node+"/trajectory", traj, nil); code != 200 {
		t.Fatalf("set trajectory: %d %s", code, msg)
	}
	var pose PoseResponse
	if code, msg := postJSON(t, node+"/advance", AdvanceRequest{DT: 1}, &pose); code != 200 {
		t.Fatalf("advance: %d %s", code, msg)
	}
	if pose.X <= 2.5 || pose.X >= 3 {
		t.Errorf("advanced pose x=%.2f, want in (2.5, 3)", pose.X)
	}
	if code, msg := doJSON(t, http.MethodDelete, node+"/trajectory", nil, nil); code != 200 {
		t.Fatalf("clear trajectory: %d %s", code, msg)
	}

	var clock ClockResponse
	if code, _ := postJSON(t, ts.URL+"/v1/clock/advance", AdvanceRequest{DT: 0.5}, &clock); code != 200 || clock.NowS <= 0 {
		t.Fatalf("clock advance: %d now=%g", code, clock.NowS)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/clock", nil, &clock); code != 200 {
		t.Fatal("clock read failed")
	}

	var disc DiscoverResponse
	if code, msg := postJSON(t, ts.URL+"/v1/discover", nil, &disc); code != 200 {
		t.Fatalf("discover: %d %s", code, msg)
	}
	if len(disc.Detections) != 1 {
		t.Errorf("discover saw %d nodes, want 1", len(disc.Detections))
	}

	var stats StatsResponse
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats); code != 200 {
		t.Fatal("stats failed")
	}
	if stats.Exchanges != 2 || stats.Localizations == 0 {
		t.Errorf("stats %+v: want 2 exchanges and some localizations", stats)
	}

	var nodes NodesResponse
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/nodes", nil, &nodes); code != 200 || len(nodes.Nodes) != 1 {
		t.Fatalf("nodes list %v", nodes)
	}

	var health HealthResponse
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != 200 || health.Status != "ok" {
		t.Fatalf("health %+v", health)
	}
	if health.APs != 1 || health.Nodes != 1 {
		t.Errorf("health counts %+v", health)
	}
}

// TestServerErrorMapping pins the sentinel→status contract.
func TestServerErrorMapping(t *testing.T) {
	cluster := newTestCluster(t)
	defer cluster.Close()
	ts := httptest.NewServer(NewServer(cluster, nil))
	defer ts.Close()

	// Unknown node → 404.
	if code, _ := postJSON(t, ts.URL+"/v1/nodes/999/localize", nil, nil); code != 404 {
		t.Errorf("unknown node: %d, want 404", code)
	}
	// Malformed id → 400.
	if code, _ := postJSON(t, ts.URL+"/v1/nodes/bogus/localize", nil, nil); code != 400 {
		t.Errorf("bad id: %d, want 400", code)
	}
	// Non-finite coordinate is not representable in JSON → decode 400.
	if code, _ := postJSON(t, ts.URL+"/v1/nodes", map[string]any{"x": "NaN"}, nil); code != 400 {
		t.Errorf("bad join body: %d, want 400", code)
	}
	var join JoinResponse
	if code, _ := postJSON(t, ts.URL+"/v1/nodes", JoinRequest{X: 3, OrientationDeg: -10}, &join); code != 200 {
		t.Fatal("join failed")
	}
	node := fmt.Sprintf("%s/v1/nodes/%d", ts.URL, join.NodeID)
	// Out-of-band rate → 400.
	if code, _ := postJSON(t, node+"/send", ExchangeRequest{Data: []byte("x"), BitRate: 1e9}, nil); code != 400 {
		t.Errorf("out-of-band: want 400")
	}
	// Empty payload → 400.
	if code, _ := postJSON(t, node+"/send", ExchangeRequest{BitRate: 10e6}, nil); code != 400 {
		t.Errorf("empty payload: want 400")
	}
	// Advance without a trajectory → 400.
	if code, _ := postJSON(t, node+"/advance", AdvanceRequest{DT: 1}, nil); code != 400 {
		t.Errorf("no trajectory: want 400")
	}
	// Blocked node → 422.
	if err := cluster.AddBlocker(context.Background(), "wall", 1.5, -1, 1.5, 1, 30); err != nil {
		t.Fatal(err)
	}
	if code, _ := postJSON(t, node+"/localize", nil, nil); code != 422 {
		t.Errorf("blocked localize: want 422")
	}
}

// TestServerRejectsOversizeBody: a send body past maxBodyBytes is refused
// with 413 and the daemon keeps serving.
func TestServerRejectsOversizeBody(t *testing.T) {
	cluster := newTestCluster(t)
	defer cluster.Close()
	ts := httptest.NewServer(NewServer(cluster, nil))
	defer ts.Close()

	var join JoinResponse
	if code, msg := postJSON(t, ts.URL+"/v1/nodes", JoinRequest{X: 3, OrientationDeg: -10}, &join); code != 200 {
		t.Fatalf("join: %d %s", code, msg)
	}
	node := fmt.Sprintf("%s/v1/nodes/%d", ts.URL, join.NodeID)
	big := ExchangeRequest{Data: bytes.Repeat([]byte("x"), maxBodyBytes), BitRate: 10e6}
	if code, msg := postJSON(t, node+"/send", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize send: %d %s, want 413", code, msg)
	}
	var ex ExchangeResponse
	if code, msg := postJSON(t, node+"/send", ExchangeRequest{Data: []byte("ok"), BitRate: 10e6}, &ex); code != 200 {
		t.Fatalf("send after oversize body: %d %s", code, msg)
	}
	if string(ex.Data) != "ok" {
		t.Errorf("send after oversize body returned %q", ex.Data)
	}
}

// TestServerDrainRefusal: after StartDrain the API answers 503 but
// /healthz stays up and reports draining.
func TestServerDrainRefusal(t *testing.T) {
	cluster := newTestCluster(t)
	defer cluster.Close()
	srv := NewServer(cluster, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.StartDrain()
	if code, msg := postJSON(t, ts.URL+"/v1/nodes", JoinRequest{X: 2}, nil); code != 503 || msg != "draining" {
		t.Errorf("drain refusal: %d %q, want 503 draining", code, msg)
	}
	var health HealthResponse
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != 200 || health.Status != "draining" {
		t.Errorf("health during drain: %+v", health)
	}
}

// TestDaemonSIGTERMDrainsInFlight is the core lifecycle guarantee: a
// SIGTERM arriving while operations are in flight lets them complete at
// their grant boundaries (every response is a 200), then Run returns nil
// and the pidfile is gone.
func TestDaemonSIGTERMDrainsInFlight(t *testing.T) {
	cluster := newTestCluster(t)
	pidfile := filepath.Join(t.TempDir(), "serve.pid")
	d, err := NewDaemon(cluster, Options{Addr: "127.0.0.1:0", PidFile: pidfile})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(pidfile); err != nil {
		t.Fatalf("pidfile not written: %v", err)
	}
	sig := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- d.Run(sig) }()
	base := "http://" + d.Addr()

	var join JoinResponse
	if code, msg := postJSON(t, base+"/v1/nodes", JoinRequest{X: 2, Y: 0, OrientationDeg: -10}, &join); code != 200 {
		t.Fatalf("join: %d %s", code, msg)
	}

	// Hold one compute-heavy exchange in flight (a 1 KiB payload keeps the
	// synthesis pipeline busy for many milliseconds on this box), then pull
	// the trigger once the handler is provably executing.
	inFlightCode := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, fmt.Sprintf("%s/v1/nodes/%d/send", base, join.NodeID),
			ExchangeRequest{Data: bytes.Repeat([]byte("x"), 1024), BitRate: 10e6}, nil)
		inFlightCode <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for d.Server().InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request ever went in flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	sig <- syscall.SIGTERM

	if code := <-inFlightCode; code != 200 {
		t.Errorf("in-flight send got %d, want 200 (drain must finish granted work)", code)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v, want nil on clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after SIGTERM")
	}
	if d.Server().InFlight() != 0 {
		t.Errorf("in-flight %d after drain", d.Server().InFlight())
	}
	if _, err := os.Stat(pidfile); !os.IsNotExist(err) {
		t.Errorf("pidfile still present after clean exit: %v", err)
	}
	// The listener is gone: new requests must fail at the dial.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("API still answering after drain")
	}
}

// TestDaemonSIGHUPRestartsDebug: SIGHUP bounces the debug server on the
// same port without touching the API plane.
func TestDaemonSIGHUPRestartsDebug(t *testing.T) {
	cluster := newTestCluster(t)
	d, err := NewDaemon(cluster, Options{Addr: "127.0.0.1:0", DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- d.Run(sig) }()

	debugURL := "http://" + d.DebugAddr() + "/debug/vars"
	resp, err := http.Get(debugURL)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("debug vars before SIGHUP: %v %v", err, resp)
	}
	resp.Body.Close()

	before := d.DebugAddr()
	sig <- syscall.SIGHUP
	// The restart is quick but asynchronous; poll until the endpoint
	// answers again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(debugURL)
		if err == nil && resp.StatusCode == 200 {
			resp.Body.Close()
			break
		}
		if err == nil {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("debug server did not come back after SIGHUP")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d.DebugAddr() != before {
		t.Errorf("debug address moved across SIGHUP: %s → %s", before, d.DebugAddr())
	}
	// API still alive throughout.
	var health HealthResponse
	if code, _ := doJSON(t, http.MethodGet, "http://"+d.Addr()+"/healthz", nil, &health); code != 200 {
		t.Fatal("API died across SIGHUP")
	}
	sig <- syscall.SIGTERM
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
