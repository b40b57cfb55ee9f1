package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/milback"
)

// maxBodyBytes bounds every API request body; a larger body fails with
// 413 before the handler sees a partial decode.
const maxBodyBytes = 1 << 20

// Server maps the milback.Cluster session API onto an HTTP mux. It is an
// http.Handler; Daemon wires it to a listener, tests drive it through
// httptest. The zero value is not usable — construct with NewServer.
type Server struct {
	cluster  *milback.Cluster
	mux      *http.ServeMux
	reg      *obs.Registry
	draining atomic.Bool
	inflight sync.WaitGroup
	active   atomic.Int64
	// clockMu serializes explicit clock advances, so the overflow check in
	// handleClockAdvance and the advance it guards act as one step.
	clockMu sync.Mutex

	requests *obs.Counter
	errs     *obs.Counter
	latency  *obs.Histogram
	gauge    *obs.Gauge
}

// NewServer builds a Server over cluster, registering its serve.*
// instruments in reg (a fresh registry is created when reg is nil).
func NewServer(cluster *milback.Cluster, reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cluster:  cluster,
		mux:      http.NewServeMux(),
		reg:      reg,
		requests: reg.Counter(obs.MetricServeRequests),
		errs:     reg.Counter(obs.MetricServeErrors),
		latency:  reg.Histogram(obs.MetricServeLatencySeconds, obs.DurationBuckets()),
		gauge:    reg.Gauge(obs.MetricServeInFlight),
	}
	s.routes()
	return s
}

// Registry returns the registry holding the serve.* instruments, for
// mounting on a debug server.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ServeHTTP implements http.Handler. A response the mux writes itself —
// 404 for an unknown path, 405 for a known path with the wrong method, 301
// to the cleaned form of an unclean path — keeps its status and headers
// (Allow, Location) but carries the API's JSON error body.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&muxErrorWriter{ResponseWriter: w}, r)
}

// muxErrorWriter swaps the plain-text or HTML body of a response the mux
// writes itself for {"error": <status text>}. Every API handler marks its
// response application/json before writing the header, so those pass
// through untouched.
type muxErrorWriter struct {
	http.ResponseWriter
	replaced bool
}

// WriteHeader implements http.ResponseWriter.
func (m *muxErrorWriter) WriteHeader(code int) {
	if m.Header().Get("Content-Type") == "application/json" {
		m.ResponseWriter.WriteHeader(code)
		return
	}
	m.replaced = true
	writeJSON(m.ResponseWriter, code, ErrorResponse{Error: strings.ToLower(http.StatusText(code))})
}

// Write implements http.ResponseWriter, dropping the mux's own body once
// WriteHeader has replaced it.
func (m *muxErrorWriter) Write(b []byte) (int, error) {
	if m.replaced {
		return len(b), nil
	}
	return m.ResponseWriter.Write(b)
}

// StartDrain flips the server into draining mode: subsequent API requests
// are refused with 503 while /healthz keeps answering (with status
// "draining") so load balancers observe the exit. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// InFlight returns the number of API requests currently executing.
func (s *Server) InFlight() int { return int(s.active.Load()) }

// WaitIdle blocks until every in-flight API request has completed. Combined
// with StartDrain this is the drain barrier: no new work is admitted, and
// outstanding cluster jobs run to their grant boundary before this returns.
func (s *Server) WaitIdle() { s.inflight.Wait() }

// routes installs one handler per session-API operation. Method+wildcard
// patterns (Go 1.22 mux) do the dispatch; {id} is the NodeID.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("POST /v1/nodes", s.api(s.handleJoin))
	s.mux.Handle("GET /v1/nodes", s.api(s.handleNodes))
	s.mux.Handle("POST /v1/nodes/{id}/localize", s.api(s.handleLocalize))
	s.mux.Handle("POST /v1/nodes/{id}/send", s.api(s.handleSend))
	s.mux.Handle("POST /v1/nodes/{id}/deliver", s.api(s.handleDeliver))
	s.mux.Handle("POST /v1/nodes/{id}/move", s.api(s.handleMove))
	s.mux.Handle("PUT /v1/nodes/{id}/trajectory", s.api(s.handleSetTrajectory))
	s.mux.Handle("DELETE /v1/nodes/{id}/trajectory", s.api(s.handleClearTrajectory))
	s.mux.Handle("POST /v1/nodes/{id}/advance", s.api(s.handleAdvance))
	s.mux.Handle("POST /v1/discover", s.api(s.handleDiscover))
	s.mux.Handle("GET /v1/stats", s.api(s.handleStats))
	s.mux.Handle("GET /v1/metrics", s.api(s.handleMetrics))
	s.mux.Handle("GET /v1/clock", s.api(s.handleClock))
	s.mux.Handle("POST /v1/clock/advance", s.api(s.handleClockAdvance))
}

// apiError carries an HTTP status alongside the underlying error.
type apiError struct {
	status int
	err    error
}

// Error implements the error interface.
func (e *apiError) Error() string { return e.err.Error() }

// badRequest wraps a client-side decode/validation failure.
func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// status maps a milback sentinel to an HTTP status.
func status(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status
	case errors.Is(err, milback.ErrUnknownNode):
		return http.StatusNotFound
	case errors.Is(err, milback.ErrInvalidCoordinate),
		errors.Is(err, milback.ErrOutOfBand),
		errors.Is(err, milback.ErrInvalidConfig),
		errors.Is(err, milback.ErrNoTrajectory):
		return http.StatusBadRequest
	case errors.Is(err, milback.ErrNoDetection):
		return http.StatusUnprocessableEntity
	case errors.Is(err, milback.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, milback.ErrCancelled):
		// The client went away or the job timed out mid-grant.
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// api wraps a handler with the serving contract: drain refusal, a request
// body bound (maxBodyBytes), in-flight accounting, request/error counters,
// latency observation, and uniform JSON encoding of the result or error.
func (s *Server) api(h func(r *http.Request) (any, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		if s.draining.Load() {
			s.errs.Inc()
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
			return
		}
		s.inflight.Add(1)
		s.active.Add(1)
		s.gauge.Set(s.active.Load())
		defer func() {
			s.active.Add(-1)
			s.gauge.Set(s.active.Load())
			s.inflight.Done()
		}()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		start := time.Now()
		res, err := h(r)
		s.latency.Observe(time.Since(start).Seconds())
		if err != nil {
			s.errs.Inc()
			writeJSON(w, status(err), ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
}

// writeJSON answers code with v as a JSON body. A v that JSON cannot carry
// (a non-finite float) is a 500 with an error body, never a bare status
// line: the value is encoded before the header goes out.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorResponse{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

// decode reads the request body into v, rejecting unknown fields and
// anything but whitespace after the one JSON value; a body over
// maxBodyBytes is a 413.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &apiError{status: http.StatusRequestEntityTooLarge,
			err: fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	return badRequest("decoding request body: %v", err)
}

// nodeID extracts the {id} path segment.
func nodeID(r *http.Request) (milback.NodeID, error) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, badRequest("node id %q is not a uint64", r.PathValue("id"))
	}
	return milback.NodeID(id), nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := "ok"
	if s.draining.Load() {
		st = "draining"
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   st,
		APs:      s.cluster.APCount(),
		Nodes:    len(s.cluster.Nodes()),
		InFlight: s.InFlight(),
	})
}

func (s *Server) handleJoin(r *http.Request) (any, error) {
	var req JoinRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	id, err := s.cluster.Join(r.Context(), req.X, req.Y, req.OrientationDeg)
	if err != nil {
		return nil, err
	}
	return JoinResponse{NodeID: uint64(id)}, nil
}

func (s *Server) handleNodes(r *http.Request) (any, error) {
	ids := s.cluster.Nodes()
	out := NodesResponse{Nodes: make([]uint64, len(ids))}
	for i, id := range ids {
		out.Nodes[i] = uint64(id)
	}
	return out, nil
}

func (s *Server) handleLocalize(r *http.Request) (any, error) {
	id, err := nodeID(r)
	if err != nil {
		return nil, err
	}
	pos, err := s.cluster.Localize(r.Context(), id)
	if err != nil {
		return nil, err
	}
	return positionJSON(pos), nil
}

func (s *Server) handleSend(r *http.Request) (any, error) {
	return s.handleExchange(r, s.cluster.Send)
}

func (s *Server) handleDeliver(r *http.Request) (any, error) {
	return s.handleExchange(r, s.cluster.Deliver)
}

func (s *Server) handleExchange(r *http.Request, op func(ctx context.Context, id milback.NodeID, data []byte, bitRate float64) (milback.Exchange, error)) (any, error) {
	id, err := nodeID(r)
	if err != nil {
		return nil, err
	}
	var req ExchangeRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if len(req.Data) == 0 {
		return nil, badRequest("empty payload")
	}
	ex, err := op(r.Context(), id, req.Data, req.BitRate)
	if err != nil {
		return nil, err
	}
	return exchangeJSON(ex), nil
}

func (s *Server) handleMove(r *http.Request) (any, error) {
	id, err := nodeID(r)
	if err != nil {
		return nil, err
	}
	var req MoveRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if err := s.cluster.Move(r.Context(), id, req.X, req.Y, req.OrientationDeg); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

func (s *Server) handleSetTrajectory(r *http.Request) (any, error) {
	id, err := nodeID(r)
	if err != nil {
		return nil, err
	}
	var req TrajectoryRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	tr := milback.Trajectory{
		Waypoints:     make([]milback.Waypoint, len(req.Waypoints)),
		Interpolation: milback.Interpolation(req.Interpolation),
	}
	for i, w := range req.Waypoints {
		tr.Waypoints[i] = milback.Waypoint{T: w.T, X: w.X, Y: w.Y, Z: w.Z, OrientationDeg: w.OrientationDeg}
	}
	if err := s.cluster.SetTrajectory(r.Context(), id, tr); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

func (s *Server) handleClearTrajectory(r *http.Request) (any, error) {
	id, err := nodeID(r)
	if err != nil {
		return nil, err
	}
	if err := s.cluster.ClearTrajectory(r.Context(), id); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

func (s *Server) handleAdvance(r *http.Request) (any, error) {
	id, err := nodeID(r)
	if err != nil {
		return nil, err
	}
	var req AdvanceRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	pose, err := s.cluster.AdvanceTrajectory(r.Context(), id, req.DT)
	if err != nil {
		return nil, err
	}
	return PoseResponse{X: pose.X, Y: pose.Y, Z: pose.Z, OrientationDeg: pose.OrientationDeg}, nil
}

func (s *Server) handleDiscover(r *http.Request) (any, error) {
	dets, err := s.cluster.Discover(r.Context())
	if err != nil {
		return nil, err
	}
	out := DiscoverResponse{Detections: make([]DetectionJSON, len(dets))}
	for i, d := range dets {
		out.Detections[i] = DetectionJSON{
			AP: d.AP, RangeM: d.RangeM, AzimuthDeg: d.AzimuthDeg,
			X: d.X, Y: d.Y, SNRdB: d.SNRdB,
		}
	}
	return out, nil
}

func (s *Server) handleStats(r *http.Request) (any, error) {
	st := s.cluster.Stats()
	return StatsResponse{
		Exchanges:     st.Exchanges,
		Localizations: st.Localizations,
		BitErrors:     st.BitErrors,
		BitsSent:      st.BitsSent,
		AirtimeS:      st.AirtimeS,
		Completed:     st.Completed,
		Failed:        st.Failed,
		Cancelled:     st.Cancelled,
	}, nil
}

func (s *Server) handleMetrics(r *http.Request) (any, error) {
	return s.cluster.Metrics(), nil
}

func (s *Server) handleClock(r *http.Request) (any, error) {
	return ClockResponse{NowS: s.cluster.Now()}, nil
}

func (s *Server) handleClockAdvance(r *http.Request) (any, error) {
	var req AdvanceRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if req.DT < 0 {
		return nil, badRequest("dt must be non-negative")
	}
	s.clockMu.Lock()
	defer s.clockMu.Unlock()
	if now := s.cluster.Now(); math.IsInf(now+req.DT, 0) {
		return nil, badRequest("advancing the clock at %g s by %g s overflows", now, req.DT)
	}
	return ClockResponse{NowS: s.cluster.AdvanceTime(req.DT)}, nil
}
