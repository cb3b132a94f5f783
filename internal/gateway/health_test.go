package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/query"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// slowNode serves a fresh store node that answers only after delay; a
// request whose caller hangs up during the delay gets no answer.
func slowNode(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	a := query.NewAPI(query.NewEngine(store.New(), market.New()), func() time.Time { return t0.Add(24 * time.Hour) })
	t.Cleanup(a.Shutdown)
	h := a.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(delay):
			h.ServeHTTP(w, r)
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// servedGateway fronts the gateway with a test server and reports each
// completed gateway request on the returned channel, so a test can wait
// until the gateway has finished recording a request's upstream outcomes.
func servedGateway(t *testing.T, g *Gateway) (*httptest.Server, <-chan struct{}) {
	t.Helper()
	// Buffered past any test's request count, so a handler never blocks
	// on a test that has stopped reading.
	done := make(chan struct{}, 64)
	h := g.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		done <- struct{}{}
	}))
	t.Cleanup(srv.Close)
	return srv, done
}

func awaitRequests(t *testing.T, done <-chan struct{}, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("gateway finished %d of %d requests", i, n)
		}
	}
}

// upstreamCalls reads one node's upstream call count for one outcome.
func upstreamCalls(reg *obs.Registry, node, outcome string) uint64 {
	return reg.Counter("spotlight_gateway_upstream_requests_total", "", "node", node, "outcome", outcome).Value()
}

// TestHedgeLoserKeepsBreakerClosed: on a replica fleet whose primary is
// healthy but slow, every batch hedges to the fast peer, which wins. The
// primary's attempt is then cancelled by the gateway itself — that is
// not the node failing, so its breaker must stay closed with no fails.
func TestHedgeLoserKeepsBreakerClosed(t *testing.T) {
	slow := slowNode(t, 300*time.Millisecond)
	fast := newNode(t, store.New())
	g, err := New(Config{Nodes: []string{slow.URL, fast.URL}, Timeout: 10 * time.Second, HedgeAfter: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.EnableMetrics(reg)
	gsrv, done := servedGateway(t, g)

	// Markets whose ring owner is the slow node, so it is every batch's
	// primary.
	var qs []api.Query
	for _, id := range usEastMarkets(t, 200) {
		if g.ring.pick(id.String()) == 0 && len(qs) < 5 {
			qs = append(qs, api.Query{Kind: api.KindUnavailability, Market: id.String(), Window: api.Last(24 * time.Hour)})
		}
	}
	if len(qs) < 5 {
		t.Fatalf("found %d markets owned by the slow node, want 5", len(qs))
	}
	for _, q := range qs {
		if status, out := postBatch(t, gsrv.URL, api.BatchRequest{Queries: []api.Query{q}}); status != http.StatusOK || out.Results[0].Error != nil {
			t.Fatalf("batch status = %d result = %+v", status, out.Results)
		}
	}
	awaitRequests(t, done, len(qs))
	// The losing attempts finish after their batches answered; wait until
	// every one has been classified.
	settled := func() uint64 {
		return upstreamCalls(reg, slow.URL, "ok") + upstreamCalls(reg, slow.URL, "error") + upstreamCalls(reg, slow.URL, "canceled")
	}
	for deadline := time.Now().Add(5 * time.Second); settled() < uint64(len(qs)) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if hedges := reg.Counter("spotlight_gateway_hedges_total", "").Value(); hedges != uint64(len(qs)) {
		t.Errorf("hedges = %v, want %d", hedges, len(qs))
	}
	if state, fails := g.health.snapshot(0); state != breakerClosed || fails != 0 {
		t.Errorf("slow node breaker = %s with %d fails, want closed with 0", state, fails)
	}
	if n := upstreamCalls(reg, slow.URL, "canceled"); n != uint64(len(qs)) {
		t.Errorf("canceled upstream calls on the slow node = %v, want %d (one hedge loser per batch)", n, len(qs))
	}
}

// TestCallerTimeoutsKeepBreakerClosed: three clients that give up on a
// slow but healthy single node, through the forwarding path, plus one
// that gives up on the health fan-out, leave the node's breaker closed
// with no fails — a caller hanging up is not a node failure, and the
// gateway stops retrying on its behalf.
func TestCallerTimeoutsKeepBreakerClosed(t *testing.T) {
	slow := slowNode(t, 300*time.Millisecond)
	g, err := New(Config{Nodes: []string{slow.URL}, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.EnableMetrics(reg)
	gsrv, done := servedGateway(t, g)

	impatient := &http.Client{Timeout: 30 * time.Millisecond}
	paths := []string{"/v1/markets?region=us-east-1", "/v1/summary", "/v1/markets", "/v2/health"}
	for _, p := range paths {
		if resp, err := impatient.Get(gsrv.URL + p); err == nil {
			resp.Body.Close()
			t.Fatalf("GET %s answered %d before the client timeout", p, resp.StatusCode)
		}
	}
	awaitRequests(t, done, len(paths))
	if n := upstreamCalls(reg, slow.URL, "canceled"); n != 3 {
		t.Errorf("canceled upstream calls = %v, want 3 (one per forwarded request, no retries)", n)
	}
	if retries := reg.Counter("spotlight_gateway_retries_total", "").Value(); retries != 0 {
		t.Errorf("retries = %v, want 0 on behalf of callers that left", retries)
	}
	if state, fails := g.health.snapshot(0); state != breakerClosed || fails != 0 {
		t.Errorf("slow node breaker = %s with %d fails, want closed with 0", state, fails)
	}
}

// TestUpstreamTimeoutStillFails: the gateway's own per-call timeout is a
// node failure — a node too slow for it still trips the breaker.
func TestUpstreamTimeoutStillFails(t *testing.T) {
	slow := slowNode(t, 300*time.Millisecond)
	g, err := New(Config{Nodes: []string{slow.URL}, Timeout: 30 * time.Millisecond, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	gsrv, done := servedGateway(t, g)

	resp, err := http.Get(gsrv.URL + "/v1/markets")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("forwarded status = %d, want 502", resp.StatusCode)
	}
	if status, out := postBatch(t, gsrv.URL, api.BatchRequest{Queries: []api.Query{{Kind: api.KindSummary}}}); status != http.StatusOK || out.Results[0].Error == nil {
		t.Errorf("batch status = %d results = %+v, want a per-query upstream error", status, out.Results)
	}
	awaitRequests(t, done, 2)
	// The batch attempt records its failure after its batch answered.
	fails := 0
	for deadline := time.Now().Add(5 * time.Second); fails < 2 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		_, fails = g.health.snapshot(0)
	}
	if fails != 2 {
		t.Errorf("fails = %d, want 2 (one timed-out forward, one timed-out batch)", fails)
	}
}
