package query

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// mktEU lives outside the us-east-1 scope of the cached queries below.
var mktEU = market.SpotID{Zone: "eu-west-1a", Type: "c3.2xlarge", Product: market.ProductLinux}

// mktWest lives in a third region, outside every scope the tests query.
var mktWest = market.SpotID{Zone: "us-west-2a", Type: "c3.2xlarge", Product: market.ProductLinux}

// cacheAPI builds an API over db whose service clock reads *clock.
func cacheAPI(db *store.Store, clock *time.Time) *API {
	return NewAPI(NewEngine(db, market.New()), func() time.Time { return *clock })
}

// serve runs one request through the API's handler.
func serve(t *testing.T, a *API, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// batchBody encodes a /v2/query envelope.
func batchBody(t *testing.T, qs ...api.Query) string {
	t.Helper()
	b, err := json.Marshal(api.BatchRequest{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cacheProbe is one replayable request through a cached surface.
type cacheProbe struct {
	a                    *API
	method, target, body string
}

func (p cacheProbe) do(t *testing.T) *httptest.ResponseRecorder {
	t.Helper()
	rec := serve(t, p.a, p.method, p.target, p.body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d body=%s", p.method, p.target, rec.Code, rec.Body)
	}
	return rec
}

// expect runs the probe and requires the cache counters to move by
// exactly the given hits and misses.
func (p cacheProbe) expect(t *testing.T, what string, hits, misses uint64) *httptest.ResponseRecorder {
	t.Helper()
	h0, m0 := p.a.cache.stats()
	rec := p.do(t)
	if h, m := p.a.cache.stats(); h-h0 != hits || m-m0 != misses {
		t.Errorf("%s: cache hits/misses +%d/+%d, want +%d/+%d", what, h-h0, m-m0, hits, misses)
	}
	return rec
}

func v1Probe(a *API, target string) cacheProbe {
	return cacheProbe{a: a, method: http.MethodGet, target: target}
}

func batchProbe(t *testing.T, a *API, qs ...api.Query) cacheProbe {
	return cacheProbe{a: a, method: http.MethodPost, target: "/v2/query", body: batchBody(t, qs...)}
}

func adviseProbe(t *testing.T, a *API, req api.AdviseRequest) cacheProbe {
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return cacheProbe{a: a, method: http.MethodPost, target: "/v2/advise", body: string(b)}
}

// cacheStore seeds enough history that every kind answers non-trivially.
func cacheStore() *store.Store {
	db := store.New()
	seedAdvisePrices(db)
	addOutage(db, mktA, store.ProbeOnDemand, t0.Add(time.Hour), t0.Add(3*time.Hour))
	addOutage(db, mktB, store.ProbeSpot, t0.Add(4*time.Hour), time.Time{})
	db.AppendSpike(store.SpikeEvent{At: t0.Add(2 * time.Hour), Market: mktA, Ratio: 2})
	db.AppendSpike(store.SpikeEvent{At: t0.Add(5 * time.Hour), Market: mktB, Ratio: 1.5})
	db.AppendRevocation(store.RevocationRecord{At: t0.Add(6 * time.Hour), Market: mktA, Bid: 1, Held: time.Hour})
	return db
}

// TestCacheTransparency: for every kind, on every surface that serves it,
// the body of a cache miss, of the hit that follows, and of a fresh API
// over the same store are byte-equal, and the hit carries the miss's
// ETag. The cache may only ever change how fast an answer comes back.
func TestCacheTransparency(t *testing.T) {
	db := cacheStore()
	clock := t0.Add(24 * time.Hour)
	mA := mktA.String()
	day := api.Last(24 * time.Hour)
	cases := []struct {
		v1 string // GET target, or "" where the kind has no v1 endpoint
		q  api.Query
	}{
		{"/v1/unavailability?window=24h&market=" + mA, api.Query{Kind: api.KindUnavailability, Window: day, Market: mA}},
		{"/v1/stable?window=24h&region=us-east-1&n=50", api.Query{Kind: api.KindStable, Window: day, Region: "us-east-1", N: 50}},
		{"/v1/volatile?window=24h&region=us-east-1", api.Query{Kind: api.KindVolatile, Window: day, Region: "us-east-1"}},
		{"/v1/fallback?window=24h&market=" + mA, api.Query{Kind: api.KindFallback, Window: day, Market: mA}},
		{"/v1/prices?window=24h&market=" + mA, api.Query{Kind: api.KindPrices, Window: day, Market: mA}},
		{"/v1/outages?window=24h&market=" + mA, api.Query{Kind: api.KindOutages, Window: day, Market: mA}},
		{"/v1/predict?window=24h&ratio=1.2&market=" + mA, api.Query{Kind: api.KindPredict, Window: day, Market: mA, Ratio: 1.2}},
		{"/v1/reserved-value?window=24h&utilization=0.3&market=" + mA, api.Query{Kind: api.KindReservedValue, Window: day, Market: mA, Utilization: 0.3}},
		{"/v1/markets?region=us-east-1", api.Query{Kind: api.KindMarkets, Region: "us-east-1"}},
		{"/v1/summary", api.Query{Kind: api.KindSummary}},
		{"", api.Query{Kind: api.KindAdvise, Window: day, Advise: &api.AdviseConstraints{Regions: []string{"us-east-1"}}}},
	}
	if len(cases) != 11 {
		t.Fatalf("cases cover %d kinds, want all 11", len(cases))
	}
	for _, c := range cases {
		surfaces := map[string]func(a *API) cacheProbe{
			"batch": func(a *API) cacheProbe { return batchProbe(t, a, c.q) },
		}
		if c.v1 != "" {
			surfaces["v1"] = func(a *API) cacheProbe { return v1Probe(a, c.v1) }
		}
		if c.q.Kind == api.KindAdvise {
			surfaces["advise"] = func(a *API) cacheProbe {
				return adviseProbe(t, a, api.AdviseRequest{AdviseConstraints: *c.q.Advise, Window: c.q.Window})
			}
		}
		for surface, probe := range surfaces {
			t.Run(string(c.q.Kind)+"/"+surface, func(t *testing.T) {
				p := probe(cacheAPI(db, &clock))
				miss := p.expect(t, "first request", 0, 1)
				hit := p.expect(t, "repeat", 1, 0)
				fresh := probe(cacheAPI(db, &clock)).do(t)
				if !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
					t.Errorf("hit body differs from miss body:\nmiss %s\nhit  %s", miss.Body, hit.Body)
				}
				if !bytes.Equal(miss.Body.Bytes(), fresh.Body.Bytes()) {
					t.Errorf("cached body differs from a fresh API's:\ncached %s\nfresh  %s", miss.Body, fresh.Body)
				}
				if et := miss.Header().Get(api.HeaderETag); et == "" || hit.Header().Get(api.HeaderETag) != et {
					t.Errorf("ETags miss %q hit %q, want equal and set", et, hit.Header().Get(api.HeaderETag))
				}
			})
		}
	}
}

// TestStableCachePerShardInvalidation: a cached region-scoped ranking
// survives appends to out-of-scope shards and is invalidated — with a
// correct recomputation — by an append to an in-scope shard.
func TestStableCachePerShardInvalidation(t *testing.T) {
	db := store.New()
	clock := t0.Add(24 * time.Hour)
	a := cacheAPI(db, &clock)
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	// N large enough to keep every us-east-1 market in the ranking.
	p := batchProbe(t, a, api.Query{Kind: api.KindStable, Region: "us-east-1", N: 1000, Window: api.Between(t0, clock)})

	p.expect(t, "first query", 0, 1)
	p.expect(t, "identical repeat", 1, 0)

	// Appends to shards outside the us-east-1 scope must not invalidate.
	db.AppendSpike(store.SpikeEvent{At: t0.Add(2 * time.Hour), Market: mktEU, Ratio: 3})
	db.AppendProbe(store.ProbeRecord{At: t0.Add(2 * time.Hour), Market: mktEU, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	p.expect(t, "after out-of-scope appends", 1, 0)

	// An in-scope append invalidates and the recomputation sees it.
	db.AppendSpike(store.SpikeEvent{At: t0.Add(3 * time.Hour), Market: mktA, Ratio: 4})
	var out api.BatchResponse
	if err := json.Unmarshal(p.expect(t, "after in-scope append", 0, 1).Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(out.Results[0].Stable, func(r api.StableMarket) bool { return r.Market == mktA.String() && r.Crossings == 2 }) {
		t.Errorf("recomputed ranking lacks %s with 2 crossings: %+v", mktA, out.Results[0].Stable)
	}
}

// TestVolatileCachePerShardInvalidation: the volatility ranking reuses a
// cached result across out-of-scope appends and recomputes — including the
// revocation enrichment — after an in-scope append of any record kind.
func TestVolatileCachePerShardInvalidation(t *testing.T) {
	db := store.New()
	clock := t0.Add(24 * time.Hour)
	a := cacheAPI(db, &clock)
	db.AppendSpike(store.SpikeEvent{At: t0.Add(time.Hour), Market: mktA, Ratio: 2})
	p := v1Probe(a, "/v1/volatile?region=us-east-1&window=24h")

	p.expect(t, "first query", 0, 1)
	p.expect(t, "identical repeat", 1, 0)

	db.AppendSpike(store.SpikeEvent{At: t0.Add(2 * time.Hour), Market: mktEU, Ratio: 3})
	p.expect(t, "after out-of-scope append", 1, 0)

	// An in-scope revocation invalidates, and the recomputation carries it.
	db.AppendRevocation(store.RevocationRecord{At: t0.Add(3 * time.Hour), Market: mktA, Bid: 1, Held: 2 * time.Hour})
	rec := p.expect(t, "after in-scope revocation", 0, 1)
	var rows []api.VolatileMarket
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || rows[0].Market != mktA.String() || rows[0].Watches != 1 || rows[0].MeanHeld != 2*time.Hour {
		t.Errorf("recomputed volatile rows = %+v, want mktA with one 2h watch", rows)
	}
}

// TestUnavailabilityCachePerMarket: per-market unavailability is keyed by
// the market's own shard generation — appends to other markets leave it
// cached; an append to the market invalidates it.
func TestUnavailabilityCachePerMarket(t *testing.T) {
	db := store.New()
	clock := t0.Add(24 * time.Hour)
	a := cacheAPI(db, &clock)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	od := v1Probe(a, "/v1/unavailability?window=24h&market="+mktA.String())

	od.expect(t, "first query", 0, 1)
	od.expect(t, "identical repeat", 1, 0)
	// A different contract kind is a different key.
	v1Probe(a, "/v1/unavailability?window=24h&kind=spot&market="+mktA.String()).expect(t, "spot contract", 0, 1)

	db.AppendProbe(store.ProbeRecord{At: t0.Add(8 * time.Hour), Market: mktB, Kind: store.ProbeOnDemand})
	od.expect(t, "after another market's append", 1, 0)

	// A new outage in the market changes the answer; the stale fraction
	// must not be served.
	db.AppendProbe(store.ProbeRecord{At: t0.Add(12 * time.Hour), Market: mktA, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	var out api.Unavailability
	if err := json.Unmarshal(od.expect(t, "after in-market append", 0, 1).Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Unavailability <= 0.25 {
		t.Errorf("recomputed unavailability = %v, want > 0.25 after the new outage", out.Unavailability)
	}
}

// TestSummaryCacheGeneration: identical summary queries hit; any append
// anywhere invalidates (the summary's scope is the whole store); a moved
// clock is a different key.
func TestSummaryCacheGeneration(t *testing.T) {
	db := store.New()
	clock := t0.Add(24 * time.Hour)
	a := cacheAPI(db, &clock)
	addOutage(db, mktA, store.ProbeOnDemand, t0, t0.Add(6*time.Hour))
	p := v1Probe(a, "/v1/summary")

	p.expect(t, "first summary", 0, 1)
	p.expect(t, "identical repeat", 1, 0)

	clock = clock.Add(time.Hour)
	p.expect(t, "after the clock moved", 0, 1)
	p.expect(t, "repeat at the new instant", 1, 0)

	db.AppendProbe(store.ProbeRecord{At: t0.Add(7 * time.Hour), Market: mktEU, Kind: store.ProbeOnDemand, Rejected: true, Code: "x"})
	var sums []api.RegionSummary
	if err := json.Unmarshal(p.expect(t, "after an append", 0, 1).Body.Bytes(), &sums); err != nil {
		t.Fatal(err)
	}
	regions := make(map[string]bool)
	for _, s := range sums {
		regions[s.Region] = true
	}
	if !regions["eu-west-1"] {
		t.Errorf("recomputed summary missing the appended region: %+v", sums)
	}
}

// TestAdviseCacheRegionSet: an advise ranking is keyed by the generation
// of its region set — an append in a region outside the set still hits,
// an append in any region of the set misses.
func TestAdviseCacheRegionSet(t *testing.T) {
	db := store.New()
	clock := t0.Add(24 * time.Hour)
	a := cacheAPI(db, &clock)
	seedAdvisePrices(db)
	p := adviseProbe(t, a, api.AdviseRequest{
		AdviseConstraints: api.AdviseConstraints{Regions: []string{"us-east-1", "eu-west-1"}},
		Window:            api.Between(t0, clock),
	})

	p.expect(t, "first advise", 0, 1)
	p.expect(t, "identical repeat", 1, 0)

	db.RecordPrice(mktWest, store.PricePoint{At: t0.Add(time.Hour), Price: 0.02})
	p.expect(t, "after an out-of-set append", 1, 0)

	db.RecordPrice(mktEU, store.PricePoint{At: t0.Add(time.Hour), Price: 0.02})
	var out api.AdviseResponse
	if err := json.Unmarshal(p.expect(t, "after an append in the set", 0, 1).Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(out.Candidates, func(c api.AdviseCandidate) bool { return c.Market == mktEU.String() }) {
		t.Errorf("recomputed ranking misses the newly priced %s: %+v", mktEU, out.Candidates)
	}
}

// TestCacheClockBound: specs whose answer depends on the service clock —
// relative windows, and advise without a window — miss when the clock
// moves; absolute windows keep hitting.
func TestCacheClockBound(t *testing.T) {
	db := cacheStore()
	clock := t0.Add(24 * time.Hour)
	a := cacheAPI(db, &clock)
	rel := v1Probe(a, "/v1/stable?region=us-east-1&window=24h")
	abs := batchProbe(t, a, api.Query{Kind: api.KindStable, Region: "us-east-1", Window: api.Between(t0, clock)})
	advise := adviseProbe(t, a, api.AdviseRequest{AdviseConstraints: api.AdviseConstraints{Regions: []string{"us-east-1"}}})

	for _, p := range []cacheProbe{rel, abs, advise} {
		p.expect(t, p.target+" first", 0, 1)
		p.expect(t, p.target+" repeat", 1, 0)
	}
	clock = clock.Add(time.Minute)
	rel.expect(t, "relative window after the clock moved", 0, 1)
	advise.expect(t, "windowless advise after the clock moved", 0, 1)
	abs.expect(t, "absolute window after the clock moved", 1, 0)
}

// TestCacheSkipsErrors: error results are never stored — a failing spec
// is evaluated afresh every time, on every surface, and leaves no entry.
func TestCacheSkipsErrors(t *testing.T) {
	db := cacheStore()
	clock := t0.Add(24 * time.Hour)
	a := cacheAPI(db, &clock)

	for i := 0; i < 2; i++ {
		if rec := serve(t, a, http.MethodGet, "/v1/prices?window=24h&market=nope", ""); rec.Code != http.StatusBadRequest {
			t.Fatalf("bad market status = %d", rec.Code)
		}
		if rec := serve(t, a, http.MethodGet, "/v1/stable?window=-1h", ""); rec.Code != http.StatusBadRequest {
			t.Fatalf("bad window status = %d", rec.Code)
		}
		rec := serve(t, a, http.MethodPost, "/v2/query", batchBody(t,
			api.Query{Kind: api.KindFallback, Window: api.Last(time.Hour), Market: mktA.String(), N: -1},
			api.Query{Kind: "bogus"}))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch status = %d", rec.Code)
		}
		if rec := serve(t, a, http.MethodPost, "/v2/advise", `{"regions":["nowhere-1"]}`); rec.Code != http.StatusBadRequest {
			t.Fatalf("bad advise status = %d", rec.Code)
		}
	}
	if h, m := a.cache.stats(); h != 0 || m != 10 {
		t.Errorf("error specs: cache hits/misses = %d/%d, want 0/10", h, m)
	}
	if n := len(a.cache.entries); n != 0 {
		t.Errorf("cache holds %d entries after only error results, want 0", n)
	}
}
