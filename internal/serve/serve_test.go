package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
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

// TestServerRejectsTrailingData: a request body must hold exactly one JSON
// value. Anything after it other than whitespace is a 400, and the
// request has no effect.
func TestServerRejectsTrailingData(t *testing.T) {
	cluster := newTestCluster(t)
	defer cluster.Close()
	ts := httptest.NewServer(NewServer(cluster, nil))
	defer ts.Close()

	const body = `{"x":2,"y":0,"orientation_deg":0}`
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"one value", body, http.StatusOK},
		{"trailing whitespace", body + " \n\t", http.StatusOK},
		{"trailing garbage", body + " trailing garbage", http.StatusBadRequest},
		{"second value", body + `{"x":3}`, http.StatusBadRequest},
		{"trailing literal", body + " true", http.StatusBadRequest},
	} {
		var before NodesResponse
		if code, msg := doJSON(t, http.MethodGet, ts.URL+"/v1/nodes", nil, &before); code != 200 {
			t.Fatalf("list nodes: %d %s", code, msg)
		}
		resp, err := http.Post(ts.URL+"/v1/nodes", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		var after NodesResponse
		if code, msg := doJSON(t, http.MethodGet, ts.URL+"/v1/nodes", nil, &after); code != 200 {
			t.Fatalf("list nodes: %d %s", code, msg)
		}
		wantJoined := 0
		if tc.want == http.StatusOK {
			wantJoined = 1
		}
		if joined := len(after.Nodes) - len(before.Nodes); joined != wantJoined {
			t.Errorf("%s: %d nodes joined, want %d", tc.name, joined, wantJoined)
		}
	}
}

// FuzzDecode asserts decode never panics and accepts only bodies that hold
// exactly one JSON value.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"x":2,"y":0,"orientation_deg":0}`))
	f.Add([]byte(`{"x":2} trailing garbage`))
	f.Add([]byte(`{"x":2}{"x":3}`))
	f.Add([]byte(`{"x":2} `))
	f.Add([]byte(`{"z":1}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/nodes", bytes.NewReader(body))
		var req JoinRequest
		if decode(r, &req) == nil && !json.Valid(body) {
			t.Fatalf("accepted body %q that is not exactly one JSON value", body)
		}
	})
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

// TestServerRejectsClockOverflow: an advance whose result would not be a
// finite time is a 400 and leaves the clock where it was, so the clock
// routes keep answering with a JSON body.
func TestServerRejectsClockOverflow(t *testing.T) {
	cluster := newTestCluster(t)
	defer cluster.Close()
	ts := httptest.NewServer(NewServer(cluster, nil))
	defer ts.Close()

	var first ClockResponse
	if code, msg := postJSON(t, ts.URL+"/v1/clock/advance", AdvanceRequest{DT: 1.7e308}, &first); code != 200 {
		t.Fatalf("first advance: %d %s", code, msg)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/clock/advance", AdvanceRequest{DT: 1.7e308}, nil); code != http.StatusBadRequest {
		t.Fatalf("overflowing advance: %d, want 400", code)
	}
	var now ClockResponse
	if code, msg := doJSON(t, http.MethodGet, ts.URL+"/v1/clock", nil, &now); code != 200 {
		t.Fatalf("clock after rejected advance: %d %s", code, msg)
	}
	if now.NowS != first.NowS {
		t.Fatalf("rejected advance moved the clock: %g -> %g", first.NowS, now.NowS)
	}
}

// TestServerNoRouteAnswersJSON: an unknown path and a known path with the
// wrong method answer 404 and 405 with the JSON error shape, and the 405
// names the allowed method.
func TestServerNoRouteAnswersJSON(t *testing.T) {
	cluster := newTestCluster(t)
	defer cluster.Close()
	ts := httptest.NewServer(NewServer(cluster, nil))
	defer ts.Close()

	for _, tc := range []struct {
		method, path string
		want         int
		allow        string
	}{
		{http.MethodGet, "/nope", http.StatusNotFound, ""},
		{http.MethodPost, "/v1/nodes/1/teleport", http.StatusNotFound, ""},
		{http.MethodGet, "/v1/discover", http.StatusMethodNotAllowed, "POST"},
		{http.MethodDelete, "/v1/clock", http.StatusMethodNotAllowed, "GET, HEAD"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
		}
		if decErr != nil || e.Error == "" {
			t.Errorf("%s %s: body is not a JSON error (%v, %+v)", tc.method, tc.path, decErr, e)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

// documentedStatus is the status set docs/OPERATIONS.md promises the API
// answers with.
var documentedStatus = map[int]bool{
	http.StatusOK:                    true,
	http.StatusMovedPermanently:      true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusMethodNotAllowed:      true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
}

// fuzzRoutes are the served route templates plus two the server does not
// serve; {id} takes the fuzzed path segment.
var fuzzRoutes = []string{
	"/healthz",
	"/v1/nodes",
	"/v1/nodes/{id}/localize",
	"/v1/nodes/{id}/send",
	"/v1/nodes/{id}/deliver",
	"/v1/nodes/{id}/move",
	"/v1/nodes/{id}/trajectory",
	"/v1/nodes/{id}/advance",
	"/v1/discover",
	"/v1/stats",
	"/v1/metrics",
	"/v1/clock",
	"/v1/clock/advance",
	"/nope",
	"/v1/nodes/{id}/teleport",
}

var fuzzMethods = []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch}

// FuzzServe drives an in-process Server over a one-AP cluster with one
// joined node (id 1) using a fuzzed method, route template, {id} segment
// and body. Each request is sent twice, so a bug that needs state to build
// up (a clock pushed past the float64 range) shows within one input. Every
// response must carry a JSON body and a documented status.
func FuzzServe(f *testing.F) {
	f.Add(uint8(1), uint8(12), "", []byte(`{"dt":1.7e308}`)) // clock overflow
	f.Add(uint8(0), uint8(13), "", []byte{})                 // unknown route
	f.Add(uint8(0), uint8(8), "", []byte{})                  // wrong method
	f.Add(uint8(1), uint8(2), "1", []byte{})
	f.Add(uint8(1), uint8(3), "1", []byte(`{"data":"aGk=","bit_rate":10e6}`))
	f.Add(uint8(1), uint8(5), "1", []byte(`{"x":3,"y":1,"orientation_deg":5}`))
	f.Add(uint8(2), uint8(6), "1", []byte(`{"waypoints":[{"t":0,"x":2},{"t":1,"x":3}]}`))
	f.Add(uint8(1), uint8(7), "1", []byte(`{"dt":0.5}`))
	f.Add(uint8(1), uint8(2), "..", []byte{})
	f.Add(uint8(1), uint8(1), "", []byte(`{"x":2} trailing`))
	f.Fuzz(func(t *testing.T, method, route uint8, id string, body []byte) {
		cluster, err := milback.NewCluster(milback.WithSeed(17))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		if _, err := cluster.Join(context.Background(), 2, 0, -10); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(cluster, nil)
		m := fuzzMethods[int(method)%len(fuzzMethods)]
		target := strings.ReplaceAll(fuzzRoutes[int(route)%len(fuzzRoutes)], "{id}", url.PathEscape(id))
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(m, target, bytes.NewReader(body)))
			if !documentedStatus[rec.Code] {
				t.Fatalf("%s %s %q: undocumented status %d (%s)", m, target, body, rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %s %q: status %d, Content-Type %q, body %q is not JSON", m, target, body, rec.Code, ct, rec.Body)
			}
		}
	})
}
