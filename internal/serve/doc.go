// Package serve is the HTTP serving layer behind cmd/milback-serve: it
// exposes the milback.Cluster session API as a JSON-over-HTTP service and
// wraps it in a daemon with the operational contract a supervisor expects.
//
// The split is two types:
//
//   - Server is the handler: a net/http mux over a Cluster, one route per
//     session-API operation (join, localize, send, deliver, move,
//     trajectories, discover, stats, metrics, clock). It owns the request
//     accounting (serve.* instruments in an obs.Registry) and the drain
//     switch — once draining, new API requests get 503 while /healthz
//     keeps answering so a load balancer can see the instance leaving.
//
//   - Daemon owns process lifecycle around a Server: listener, pidfile,
//     debug endpoint, and the signal loop. SIGTERM/SIGINT triggers a
//     graceful drain: stop accepting work, wait for in-flight operations
//     to complete at their grant boundaries (http.Server.Shutdown waits on
//     active handlers, and each handler runs its cluster job to the end),
//     then close the cluster and exit cleanly. SIGHUP
//     restarts the debug server on its configured address — a clean
//     restart of the observability plane without dropping a single
//     session request.
//
// Wire format: requests and responses are small JSON documents (api.go);
// payload bytes travel base64-encoded in the standard encoding. Errors are
// JSON {"error": ...} bodies with the milback sentinel mapped to an HTTP
// status (unknown node 404, invalid input 400, no detection 422, draining
// or closed 503).
//
// # Paper map
//
// The paper's testbed drives one AP from one script (§9). This layer is
// the repo's north-star extension: the simulated mmWave network as a
// long-running service that many concurrent clients share, with the
// operational affordances (drain, health, debug, load gates) that make
// capacity claims about it testable — see cmd/milback-loadgen and
// docs/OPERATIONS.md.
package serve
