package serve

import (
	"slices"
	"time"

	"explink/internal/obs"
)

// requestOps are the ops that run through the shared admission path (HTTP
// and stdio alike); serveOps adds the fabric work RPCs, which bypass it.
// Pre-registering every (series, label) pair keeps the hot path free of
// registry lookups.
var (
	requestOps = []string{"solve", "eval", "sim", "exp", "pareto"}
	serveOps   = append(slices.Clip(requestOps), "work")
)

// rejectReasons are the admission-failure classes (see reasonOf); "" —
// client disconnected while queued — is counted as "cancelled".
var rejectReasons = []string{"draining", "overloaded", "rate-limited", "cancelled"}

// metrics holds the server's exported instruments. All of them are nil-safe
// no-ops when the server was built without a registry.
type metrics struct {
	requests map[string]*obs.Counter // serve_requests_total{op}
	failures map[string]*obs.Counter // serve_failures_total{op}
	rejected map[string]*obs.Counter // serve_rejected_total{reason}
	timers   map[string]*obs.Timer   // serve_request_total/_seconds_total{op}
	gateWait map[string]*obs.Timer   // serve_gate_wait_total/_seconds_total{op}
	bypass   map[string]*obs.Counter // serve_bypass_total{op}
}

func newMetrics(reg *obs.Registry, g *gate) *metrics {
	m := &metrics{
		requests: make(map[string]*obs.Counter, len(serveOps)),
		failures: make(map[string]*obs.Counter, len(serveOps)),
		rejected: make(map[string]*obs.Counter, len(rejectReasons)),
		timers:   make(map[string]*obs.Timer, len(serveOps)),
		gateWait: make(map[string]*obs.Timer, len(requestOps)),
		bypass:   make(map[string]*obs.Counter, len(requestOps)),
	}
	for _, op := range serveOps {
		m.requests[op] = reg.Counter("serve_requests_total", "requests received", obs.L("op", op))
		m.failures[op] = reg.Counter("serve_failures_total", "requests that returned an error", obs.L("op", op))
		m.timers[op] = reg.Timer("serve_request", "request wall time", obs.L("op", op))
	}
	for _, op := range requestOps {
		m.gateWait[op] = reg.Timer("serve_gate_wait", "time spent waiting for a gate slot", obs.L("op", op))
		m.bypass[op] = reg.Counter("serve_bypass_total", "requests that finished without asking for a gate slot", obs.L("op", op))
	}
	for _, reason := range rejectReasons {
		m.rejected[reason] = reg.Counter("serve_rejected_total", "requests rejected at admission", obs.L("reason", reason))
	}
	reg.Func("serve_inflight", "requests currently holding a gate slot", func() float64 { return float64(g.inflight()) })
	reg.Func("serve_queued", "requests waiting for a gate slot", func() float64 { return float64(g.queued()) })
	reg.Func("serve_draining", "1 while the server is draining", func() float64 {
		if g.draining() {
			return 1
		}
		return 0
	})
	return m
}

func (m *metrics) request(op string) { m.requests[op].Inc() }
func (m *metrics) failure(op string) { m.failures[op].Inc() }

func (m *metrics) reject(reason string) {
	if reason == "" {
		reason = "cancelled"
	}
	m.rejected[reason].Inc()
}

func (m *metrics) observe(op string, d time.Duration) { m.timers[op].Observe(d) }
func (m *metrics) waited(op string, d time.Duration)  { m.gateWait[op].Observe(d) }
func (m *metrics) bypassed(op string)                 { m.bypass[op].Inc() }
