// Gateway observability: per-upstream latency and outcome series,
// retry/hedge counters, breaker state, and partial-merge counts.
//
// The per-node children are resolved once at EnableMetrics into plain
// slices indexed by node — the hot paths (batchNode's launch closure,
// forward's candidate loop) then touch an atomic, never the registry's
// lock. A gateway whose metrics were never enabled carries nil pointers
// in those slices, and every obs method no-ops on nil, so the
// uninstrumented cost is one nil check per call.
package gateway

import (
	"time"

	"spotlight/internal/obs"
)

// gwMetrics holds the gateway's hot-path instruments, indexed by node
// where labeled. Allocated (with sized slices) in New; armed by
// EnableMetrics.
type gwMetrics struct {
	retries       *obs.Counter
	hedges        *obs.Counter
	partialMerges *obs.Counter

	upstreamSeconds  []*obs.Histogram
	upstreamOK       []*obs.Counter
	upstreamErr      []*obs.Counter
	upstreamCanceled []*obs.Counter
	breakerOpens     []*obs.Counter
}

func newGwMetrics(n int) *gwMetrics {
	return &gwMetrics{
		upstreamSeconds:  make([]*obs.Histogram, n),
		upstreamOK:       make([]*obs.Counter, n),
		upstreamErr:      make([]*obs.Counter, n),
		upstreamCanceled: make([]*obs.Counter, n),
		breakerOpens:     make([]*obs.Counter, n),
	}
}

// observeUpstream records one upstream attempt against node n.
func (m *gwMetrics) observeUpstream(n int, d time.Duration, ok bool) {
	m.upstreamSeconds[n].Observe(d)
	if ok {
		m.upstreamOK[n].Inc()
	} else {
		m.upstreamErr[n].Inc()
	}
}

// observeAbandoned records an upstream attempt against node n that its
// caller stopped waiting for: counted apart from ok and error, and left
// out of the latency histogram, whose sample it would truncate.
func (m *gwMetrics) observeAbandoned(n int) {
	m.upstreamCanceled[n].Inc()
}

// EnableMetrics registers the gateway's series in reg and arms the
// hot-path instruments. Call before Handler(): the registry also serves
// GET /metrics and GET /v2/metrics there, and every route picks up the
// shared HTTP middleware. A nil registry leaves the gateway
// uninstrumented.
func (g *Gateway) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	g.reg = reg
	m := g.metrics
	m.retries = reg.Counter("spotlight_gateway_retries_total",
		"Upstream attempts launched because a previous candidate failed.")
	m.hedges = reg.Counter("spotlight_gateway_hedges_total",
		"Duplicate upstream attempts launched by the hedge timer.")
	m.partialMerges = reg.Counter("spotlight_gateway_partial_merges_total",
		"Fanned-out queries merged with at least one partition missing.")
	for i, node := range g.cfg.Nodes {
		m.upstreamSeconds[i] = reg.Histogram("spotlight_gateway_upstream_seconds",
			"Latency of one upstream call, per node.", "node", node)
		const help = "Upstream calls by node and outcome (ok: the node answered, even with a query-level error; " +
			"canceled: the caller stopped waiting first)."
		m.upstreamOK[i] = reg.Counter("spotlight_gateway_upstream_requests_total", help, "node", node, "outcome", "ok")
		m.upstreamErr[i] = reg.Counter("spotlight_gateway_upstream_requests_total", help, "node", node, "outcome", "error")
		m.upstreamCanceled[i] = reg.Counter("spotlight_gateway_upstream_requests_total", help, "node", node, "outcome", "canceled")
		m.breakerOpens[i] = reg.Counter("spotlight_gateway_breaker_opens_total",
			"Closed-to-open breaker transitions, per node.", "node", node)
		i := i
		reg.GaugeFunc("spotlight_gateway_breaker_state",
			"Breaker state per node: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				switch state, _ := g.health.snapshot(i); state {
				case breakerHalfOpen:
					return 1
				case breakerOpen:
					return 2
				}
				return 0
			}, "node", node)
	}
	// Count closed-to-open transitions at the tracker, where the
	// transition is decided under the node's lock (fail() may race with
	// itself across goroutines).
	g.health.onOpen = func(i int) { m.breakerOpens[i].Inc() }
}
