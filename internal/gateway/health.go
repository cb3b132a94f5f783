// Per-upstream health: circuit breakers, retry/failover candidate
// ordering, hedged batch calls, and the optional re-admission prober.
//
// The failure model is the PR 8 one: a store node that is slow, dead, or
// resetting connections must cost the fleet one degraded answer, not a
// hard 502 for everything routed its way. Every idempotent call runs
// through pickCandidates/batchNode or forward below, which record
// per-node outcomes in the tracker; a node that fails FailThreshold
// calls in a row is ejected (breaker opens) and traffic flows to its
// peers until a trial call — lazy, or driven by the background prober —
// succeeds and re-admits it.
package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"spotlight/pkg/api"
)

// Breaker defaults.
const (
	// defaultFailThreshold is how many consecutive call failures eject a
	// node.
	defaultFailThreshold = 3
	// defaultEjectFor is how long an ejected node sits out before a
	// trial call may probe it again.
	defaultEjectFor = 5 * time.Second
	// defaultRetries is how many extra candidates an idempotent call may
	// try after its primary fails.
	defaultRetries = 1
)

// Breaker states, reported in NodeHealth.Breaker.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// nodeState is one upstream's breaker.
type nodeState struct {
	mu       sync.Mutex
	fails    int       // consecutive failures
	open     bool      // ejected
	openedAt time.Time // when the breaker last opened
}

// tracker holds the per-node breakers.
type tracker struct {
	nodes     []nodeState
	threshold int
	ejectFor  time.Duration
	// onOpen, when set (EnableMetrics), observes each closed-to-open
	// transition; called with the node's lock held, so it must not call
	// back into the tracker.
	onOpen func(node int)
}

func newTracker(n, threshold int, ejectFor time.Duration) *tracker {
	if threshold <= 0 {
		threshold = defaultFailThreshold
	}
	if ejectFor <= 0 {
		ejectFor = defaultEjectFor
	}
	return &tracker{nodes: make([]nodeState, n), threshold: threshold, ejectFor: ejectFor}
}

// allow reports whether node i should receive traffic: breaker closed,
// or open long enough that a half-open trial is due.
func (t *tracker) allow(i int) bool {
	s := &t.nodes[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return true
	}
	return time.Since(s.openedAt) >= t.ejectFor
}

// succeed records a successful call: the breaker closes and the failure
// run resets.
func (t *tracker) succeed(i int) {
	s := &t.nodes[i]
	s.mu.Lock()
	s.fails = 0
	s.open = false
	s.mu.Unlock()
}

// fail records a failed call: at threshold the breaker opens (or
// re-opens, restarting the cooldown after a failed half-open trial).
func (t *tracker) fail(i int) {
	s := &t.nodes[i]
	s.mu.Lock()
	s.fails++
	if s.fails >= t.threshold || s.open {
		if !s.open && t.onOpen != nil {
			t.onOpen(i)
		}
		s.open = true
		s.openedAt = time.Now()
	}
	s.mu.Unlock()
}

// snapshot reports node i's breaker for /v2/health.
func (t *tracker) snapshot(i int) (state string, fails int) {
	s := &t.nodes[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !s.open:
		state = breakerClosed
	case time.Since(s.openedAt) >= t.ejectFor:
		state = breakerHalfOpen
	default:
		state = breakerOpen
	}
	return state, s.fails
}

// errUpstreamTimeout is the cause the gateway attaches to its own
// upstream deadline, which tells a node too slow to answer (a failure)
// apart from a caller that stopped waiting (not the node's doing).
var errUpstreamTimeout = errors.New("gateway: upstream timeout")

// abandoned reports whether a failed upstream call under ctx failed
// because its caller stopped waiting — the client hung up, or a sibling
// attempt already answered — rather than because of the node. Such a
// call records neither success nor failure on the node's breaker; only
// the gateway's own timeout (errUpstreamTimeout) still counts as one.
func abandoned(ctx context.Context) bool {
	return ctx.Err() != nil && context.Cause(ctx) != errUpstreamTimeout
}

// nodeAlive classifies a batch-call error: an *api.Error other than
// "internal" means the node answered — it is healthy, the query was bad
// — while transport failures and node-internal errors count against the
// breaker and are worth retrying elsewhere.
func nodeAlive(err error) bool {
	var aerr *api.Error
	return errors.As(err, &aerr) && aerr.Code != api.CodeInternal
}

// pickCandidates builds the attempt order for one idempotent call whose
// affinity choice is primary. On a replica fleet any node can answer, so
// the list rotates through distinct peers, healthy ones first (ejected
// nodes stay at the tail as a last resort — a fully ejected fleet still
// gets tried rather than failing without a single wire attempt). On a
// partitioned fleet only the owner has the data, so retries re-try it.
// The list is capped at 1+Retries attempts.
func (g *Gateway) pickCandidates(primary int) []int {
	max := 1 + g.retries()
	if g.cfg.Partitioned || len(g.clients) == 1 {
		out := make([]int, 0, max)
		for len(out) < max {
			out = append(out, primary)
		}
		return out
	}
	healthy := make([]int, 0, len(g.clients))
	ejected := make([]int, 0)
	for k := 0; k < len(g.clients); k++ {
		n := (primary + k) % len(g.clients)
		if g.health.allow(n) {
			healthy = append(healthy, n)
		} else {
			ejected = append(ejected, n)
		}
	}
	out := append(healthy, ejected...)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

func (g *Gateway) retries() int {
	if g.cfg.Retries < 0 {
		return 0
	}
	if g.cfg.Retries == 0 {
		return defaultRetries
	}
	return g.cfg.Retries
}

// firstHealthy returns primary unless its breaker is open, in which case
// the next non-ejected node in rotation (or primary again when the whole
// fleet is ejected).
func (g *Gateway) firstHealthy(primary int) int {
	for k := 0; k < len(g.clients); k++ {
		n := (primary + k) % len(g.clients)
		if g.health.allow(n) {
			return n
		}
	}
	return primary
}

// batchAttempt is one upstream try of a sub-batch.
type batchAttempt struct {
	resp *api.BatchResponse
	etag string
	node int
	err  error
}

// batchNode runs one node sub-batch with failover and hedging: attempts
// start at the candidates in order — the next one launched when the
// previous fails, or early when HedgeAfter elapses without an answer
// (the hedge duplicates an idempotent read, so the only cost is load) —
// and the first success wins, cancelling the rest. Outcomes feed the
// breakers, except those of attempts nobody was waiting for any more.
func (g *Gateway) batchNode(ctx context.Context, primary int, queries []api.Query) batchAttempt {
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	cands := g.pickCandidates(primary)
	results := make(chan batchAttempt, len(cands))
	launched := 0
	launch := func() {
		n := cands[launched]
		launched++
		go func() {
			start := time.Now()
			resp, etag, err := g.clients[n].BatchTagged(ctx, queries...)
			if err != nil && abandoned(ctx) {
				g.metrics.observeAbandoned(n)
				results <- batchAttempt{node: n, err: err}
				return
			}
			alive := err == nil || nodeAlive(err)
			g.metrics.observeUpstream(n, time.Since(start), alive)
			if alive {
				g.health.succeed(n)
			} else {
				g.health.fail(n)
			}
			results <- batchAttempt{resp: resp, etag: etag, node: n, err: err}
		}()
	}
	launch()

	hedge := g.cfg.HedgeAfter
	var hedgeC <-chan time.Time
	if hedge > 0 && launched < len(cands) {
		t := time.NewTimer(hedge)
		defer t.Stop()
		hedgeC = t.C
	}

	var first batchAttempt
	got := 0
	for {
		select {
		case a := <-results:
			got++
			if a.err == nil || nodeAlive(a.err) {
				return a
			}
			if first.err == nil {
				first = a
			}
			if launched < len(cands) && ctx.Err() == nil {
				g.metrics.retries.Inc()
				launch()
			} else if got == launched {
				return first
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(cands) {
				g.metrics.hedges.Inc()
				launch()
			}
		case <-ctx.Done():
			if first.err == nil {
				first = batchAttempt{node: primary, err: ctx.Err()}
			}
			return first
		}
	}
}

// forward relays one idempotent HTTP request (a /v1 GET, or the
// replica-fleet advise POST whose body the caller buffered) to the
// candidate nodes in order, copying the first usable answer — status,
// headers (ETags included), body — back to the client. A transport
// error or 5xx moves on to the next candidate and feeds the breaker; a
// 2xx/3xx/4xx is the node's real answer and relays as-is. A transport
// error after the caller hung up ends the relay without blaming the node.
// This replaces the single-shot ReverseProxy for everything except
// streaming.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, primary int, body []byte) {
	cands := g.pickCandidates(primary)
	var lastErr error
	var lastNode string
	for k, n := range cands {
		if k > 0 {
			g.metrics.retries.Inc()
		}
		ctx, cancel := context.WithTimeoutCause(r.Context(), g.cfg.Timeout, errUpstreamTimeout)
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, r.Method, g.cfg.Nodes[n]+r.URL.RequestURI(), rd)
		if err != nil {
			cancel()
			writeErr(w, http.StatusInternalServerError, api.Errorf(api.CodeInternal, "build upstream request: %v", err))
			return
		}
		copyHeader(req.Header, r.Header)
		start := time.Now()
		resp, err := g.httpClient().Do(req)
		if err != nil && abandoned(ctx) {
			g.metrics.observeAbandoned(n)
			cancel()
			return
		}
		if err != nil {
			g.metrics.observeUpstream(n, time.Since(start), false)
			cancel()
			g.health.fail(n)
			lastErr, lastNode = err, g.cfg.Nodes[n]
			continue
		}
		if resp.StatusCode >= 500 {
			g.metrics.observeUpstream(n, time.Since(start), false)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			cancel()
			g.health.fail(n)
			lastErr, lastNode = errors.New(resp.Status), g.cfg.Nodes[n]
			continue
		}
		g.metrics.observeUpstream(n, time.Since(start), true)
		g.health.succeed(n)
		copyHeader(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		cancel()
		return
	}
	writeErr(w, http.StatusBadGateway,
		api.Errorf(api.CodeUpstream, "upstream unreachable: %v", lastErr).WithDetail("node", lastNode))
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

func (g *Gateway) httpClient() *http.Client {
	if g.cfg.HTTPClient != nil {
		return g.cfg.HTTPClient
	}
	return http.DefaultClient
}

// probeLoop is the background re-admission prober: every interval it
// polls /v2/health on nodes whose breaker is not closed, so an ejected
// node that recovered rejoins the rotation within one interval instead
// of waiting for live traffic to take the half-open gamble.
func (g *Gateway) probeLoop(interval time.Duration) {
	defer close(g.probeDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-ticker.C:
			for i := range g.clients {
				if state, _ := g.health.snapshot(i); state == breakerClosed {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), g.cfg.Timeout)
				_, err := g.clients[i].Health(ctx)
				cancel()
				if err != nil {
					g.health.fail(i)
				} else {
					g.health.succeed(i)
				}
			}
		}
	}
}

// Close stops the background prober (if one was started). The gateway
// itself holds no other resources; idempotent.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		if g.probeStop != nil {
			close(g.probeStop)
			<-g.probeDone
		}
	})
}
