// Package query implements SpotLight's query interface (Chapter 3:
// "SpotLight exports a query interface that enables applications or users
// to query information about the availability characteristics of
// different server types and contracts"). The Engine answers queries from
// the store; the HTTP layer in this package exposes them to applications
// like SpotCheck and SpotOn for programmatic, automated server selection.
package query

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"spotlight/internal/advisor"
	"spotlight/internal/market"
	"spotlight/internal/stats"
	"spotlight/internal/store"
)

// ErrBadWindow is returned when a query window is empty or inverted.
var ErrBadWindow = errors.New("query: to must be after from")

// Engine answers availability queries from a SpotLight store. The
// cacheable queries — the rankings (TopStableMarkets, TopVolatileMarkets),
// Summary, per-market unavailability, and windowed price summaries — are
// memoized in a generation-keyed response cache: a result is reused until
// some shard in the query's scope sees an append. Scope generations come
// from the store's rollup hierarchy (GenerationOfScope), so a cache probe
// is O(1) instead of a walk over every shard, and Summary itself reads the
// O(regions) rollup aggregates rather than folding per-market state.
// Cached results are shared between callers — treat the returned slices as
// read-only.
type Engine struct {
	db    *store.Store
	cat   *market.Catalog
	cache *resultCache
	adv   *advisor.Advisor

	// summary is the single-slot Summary cache: one pointer swap per
	// recompute, one atomic load per probe. Summary is the hottest
	// cached query (every dashboard poll and every service tick reads
	// it), and its validity check — generation AND instant — is fully
	// contained in the slot, so it skips the keyed map and its mutex
	// entirely. nil while caching is disabled or before the first fold.
	summary atomic.Pointer[summarySlot]
}

// NewEngine builds a query engine over db and the catalog, with response
// caching enabled.
func NewEngine(db *store.Store, cat *market.Catalog) *Engine {
	return &Engine{db: db, cat: cat, cache: newResultCache(0), adv: advisor.New(db, cat)}
}

// Advisor returns the engine's decision layer, for in-process consumers
// (the fleet manager) that want to share its generation-keyed memo with
// the /v2/advise endpoint.
func (e *Engine) Advisor() *advisor.Advisor { return e.adv }

// SetCaching enables or disables the response cache (it is on by
// default). Disabling exists for benchmarks that measure the raw query
// path and for callers that mutate returned slices.
func (e *Engine) SetCaching(on bool) {
	e.summary.Store(nil)
	if on {
		if e.cache == nil {
			e.cache = newResultCache(0)
		}
		return
	}
	e.cache = nil
}

// CacheStats returns the response cache's hit/miss counters (zeros when
// caching is disabled).
func (e *Engine) CacheStats() (hits, misses uint64) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.stats()
}

// scopeKeep returns the shard filter of a region/product-scoped query, or
// nil when unfiltered (meaning: every shard).
func scopeKeep(region market.Region, product market.Product) func(market.SpotID) bool {
	if region == "" && product == "" {
		return nil
	}
	return func(id market.SpotID) bool {
		if region != "" && id.Region() != region {
			return false
		}
		return product == "" || id.Product == product
	}
}

// unavailability computes the fraction of [from, to] covered by detected
// outages of the given contract kind. The window arithmetic runs inside
// the market's shard (store.OutageOverlap): no interval list is copied.
// This is the uncached path; the ranking loops use it directly so a
// thousand per-market folds don't churn the response cache.
func (e *Engine) unavailability(m market.SpotID, kind store.ProbeKind, from, to time.Time) (float64, error) {
	if !to.After(from) {
		return 0, ErrBadWindow
	}
	total := e.db.OutageOverlap(m, kind, from, to)
	return float64(total) / float64(to.Sub(from)), nil
}

// cachedUnavailability memoizes one market's unavailability per (market,
// kind, window) keyed by the market's own shard generation — appends to
// any other market leave the entry valid.
func (e *Engine) cachedUnavailability(m market.SpotID, kind store.ProbeKind, from, to time.Time) (float64, error) {
	if e.cache == nil {
		return e.unavailability(m, kind, from, to)
	}
	gen := e.db.Generation(m)
	key := fmt.Sprintf("unav|%s|%d|%d|%d", m, kind, from.UnixNano(), to.UnixNano())
	return memoize(e.cache, key, gen, func() (float64, error) {
		return e.unavailability(m, kind, from, to)
	})
}

// ODUnavailability returns the fraction of the window during which the
// market's on-demand tier was detected unavailable. Results are cached per
// (market, window) until the market's shard sees an append.
func (e *Engine) ODUnavailability(m market.SpotID, from, to time.Time) (float64, error) {
	return e.cachedUnavailability(m, store.ProbeOnDemand, from, to)
}

// SpotUnavailability returns the fraction of the window during which the
// market's spot tier was detected capacity-not-available. Cached like
// ODUnavailability.
func (e *Engine) SpotUnavailability(m market.SpotID, from, to time.Time) (float64, error) {
	return e.cachedUnavailability(m, store.ProbeSpot, from, to)
}

// StableMarket is one row of a stability ranking.
type StableMarket struct {
	Market market.SpotID `json:"market"`
	// Crossings is how many times the spot price crossed the on-demand
	// price in the window — each crossing revokes a spot instance bid at
	// the on-demand price.
	Crossings int `json:"crossings"`
	// MTTR is the estimated mean time to revocation for a bid equal to
	// the on-demand price: window / (crossings + 1). This is the metric
	// behind the paper's example query ("top ten server types with the
	// longest mean-time-to-revocation for a bid price equal to the
	// corresponding on-demand price").
	MTTR time.Duration `json:"mttrNanos"`
	// ODUnavailability is the market's detected on-demand outage
	// fraction over the window.
	ODUnavailability float64 `json:"odUnavailability"`
}

// TopStableMarkets ranks the spot markets of a region (all regions when
// empty) by fewest on-demand-price crossings and returns the n most
// stable. Product filters to one platform when non-empty. Results are
// cached per (filter, n, window) until an append lands in a matching
// shard; the returned slice is shared — do not modify it.
func (e *Engine) TopStableMarkets(region market.Region, product market.Product, n int, from, to time.Time) ([]StableMarket, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	if n <= 0 {
		return nil, nil
	}
	if e.cache == nil {
		return e.computeStableMarkets(region, product, n, from, to)
	}
	// The generation is the scope's rollup counter — an O(1) load, not a
	// shard walk; memoize owns the generation-first ordering.
	gen := e.db.GenerationOfScope(region, product)
	key := fmt.Sprintf("stable|%s|%s|%d|%d|%d", region, product, n, from.UnixNano(), to.UnixNano())
	return memoize(e.cache, key, gen, func() ([]StableMarket, error) {
		return e.computeStableMarkets(region, product, n, from, to)
	})
}

// computeStableMarkets is the uncached stability ranking. It is a named
// method rather than a closure inside TopStableMarkets so the sort
// comparator stays inlinable — the Market.String() tie-break would heap-
// allocate on every comparison from inside a nested closure.
func (e *Engine) computeStableMarkets(region market.Region, product market.Product, n int, from, to time.Time) ([]StableMarket, error) {
	crossings := e.db.SpikeCrossingsWhere(from, to, scopeKeep(region, product))
	window := to.Sub(from)
	var rows []StableMarket
	for _, id := range e.cat.SpotMarkets() {
		if region != "" && id.Region() != region {
			continue
		}
		if product != "" && id.Product != product {
			continue
		}
		c := crossings[id].Crossings
		unav, err := e.unavailability(id, store.ProbeOnDemand, from, to)
		if err != nil {
			return nil, err
		}
		rows = append(rows, StableMarket{
			Market:           id,
			Crossings:        c,
			MTTR:             window / time.Duration(c+1),
			ODUnavailability: unav,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Crossings != rows[j].Crossings {
			return rows[i].Crossings < rows[j].Crossings
		}
		if rows[i].ODUnavailability != rows[j].ODUnavailability {
			return rows[i].ODUnavailability < rows[j].ODUnavailability
		}
		return rows[i].Market.String() < rows[j].Market.String()
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows, nil
}

// Fallback is one recommended fail-over market.
type Fallback struct {
	Market market.SpotID `json:"market"`
	// ODUnavailability is the candidate's detected on-demand outage
	// fraction (lower is better: this is the pool an application fails
	// over to when its spot server is revoked).
	ODUnavailability float64 `json:"odUnavailability"`
	// Crossings counts the candidate's own spot spikes in the window.
	Crossings int `json:"crossings"`
}

// RecommendFallback returns up to n markets from *different families* in
// the same region whose on-demand tier was most available during the
// window — the uncorrelated fail-over targets that restore SpotCheck and
// SpotOn to near-100% availability (Chapter 6).
func (e *Engine) RecommendFallback(m market.SpotID, n int, from, to time.Time) ([]Fallback, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	if n <= 0 {
		return nil, nil
	}
	var rows []Fallback
	for _, cand := range e.cat.UncorrelatedCandidates(m) {
		unav, err := e.unavailability(cand, store.ProbeOnDemand, from, to)
		if err != nil {
			return nil, err
		}
		// Per-candidate index lookups: the candidate set is a handful of
		// markets, so touching only their shards beats a full
		// SpikeCrossingsWhere walk over every shard in the store.
		rows = append(rows, Fallback{
			Market:           cand,
			ODUnavailability: unav,
			Crossings:        e.db.CrossingStatsFor(cand, from, to).Crossings,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ODUnavailability != rows[j].ODUnavailability {
			return rows[i].ODUnavailability < rows[j].ODUnavailability
		}
		if rows[i].Crossings != rows[j].Crossings {
			return rows[i].Crossings < rows[j].Crossings
		}
		return rows[i].Market.String() < rows[j].Market.String()
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows, nil
}

// RegionSummary aggregates detected availability per region.
type RegionSummary struct {
	Region            market.Region `json:"region"`
	ODOutages         int           `json:"odOutages"`
	SpotOutages       int           `json:"spotOutages"`
	MeanODOutage      time.Duration `json:"meanODOutageNanos"`
	RejectedODProbes  int           `json:"rejectedODProbes"`
	TotalODProbes     int           `json:"totalODProbes"`
	RejectedSpotPcnt  float64       `json:"rejectedSpotPcnt"`
	TotalSpotProbes   int           `json:"totalSpotProbes"`
	SpikesAboveOD     int           `json:"spikesAboveOD"`
	ObservedSpikesAll int           `json:"observedSpikesAll"`
}

// Summary aggregates the store per region at instant now (used to close
// ongoing outages). It reads the store's region-level rollups — O(regions)
// entries maintained incrementally on the append path, so no market shard
// is walked at all — and memoizes the result per (now, global generation):
// repeated summary queries between appends (and between ticks of the
// service clock) are a cache hit. The returned slice is shared — do not
// modify it.
func (e *Engine) Summary(now time.Time) []RegionSummary {
	// The summary depends on `now` (open outages are measured to it), so
	// a cached fold is only valid at the exact instant it was computed —
	// but under an advancing clock (the live daemon ticks every wall
	// second) keying the map by `now` would accumulate one dead entry
	// per tick. Instead the summary occupies a single slot whose value
	// remembers its instant: each new `now` overwrites it, repeated
	// queries within one instant hit.
	var gen uint64
	if e.cache != nil {
		// Generation is read *before* the fold (same ordering rule as
		// memoize): an append racing the recompute leaves the slot
		// stored at the older generation, so the next probe recomputes
		// rather than serving stale rows.
		gen = e.db.GlobalGeneration()
		if slot := e.summary.Load(); slot != nil && slot.gen == gen && slot.now.Equal(now) {
			e.cache.fastHits.Add(1)
			return slot.rows
		}
		e.cache.fastMisses.Add(1)
	}
	var out []RegionSummary
	for _, agg := range e.db.RegionAggregates(now) {
		if agg.TotalProbes == 0 && agg.Spikes == 0 {
			continue // regions with only price/bid-spread/revocation history
		}
		s := RegionSummary{
			Region:            agg.Region,
			ODOutages:         agg.ODOutages,
			SpotOutages:       agg.SpotOutages,
			RejectedODProbes:  agg.ODRejected,
			TotalODProbes:     agg.ODProbes,
			TotalSpotProbes:   agg.SpotProbes,
			SpikesAboveOD:     agg.SpikesAboveOD,
			ObservedSpikesAll: agg.Spikes,
		}
		if agg.ODOutages > 0 {
			s.MeanODOutage = agg.ODOutageDur / time.Duration(agg.ODOutages)
		}
		if agg.SpotProbes > 0 {
			s.RejectedSpotPcnt = float64(agg.SpotRejected) / float64(agg.SpotProbes)
		}
		out = append(out, s)
	}
	if e.cache != nil {
		e.summary.Store(&summarySlot{gen: gen, now: now, rows: out})
	}
	return out
}

// summarySlot is the single cached Summary fold plus the generation and
// instant it is valid at.
type summarySlot struct {
	gen  uint64
	now  time.Time
	rows []RegionSummary
}

// MarketInfo is one row of the market-discovery listing.
type MarketInfo struct {
	Market        market.SpotID `json:"market"`
	OnDemandPrice float64       `json:"onDemandPrice"`
	Family        string        `json:"family"`
	Units         int           `json:"units"`
}

// Markets lists the catalog's spot markets, optionally filtered by region
// and product — the discovery call an application makes before asking
// availability questions.
func (e *Engine) Markets(region market.Region, product market.Product) ([]MarketInfo, error) {
	var out []MarketInfo
	for _, id := range e.cat.SpotMarkets() {
		if region != "" && id.Region() != region {
			continue
		}
		if product != "" && id.Product != product {
			continue
		}
		od, err := e.cat.SpotODPrice(id)
		if err != nil {
			return nil, err
		}
		units, err := e.cat.Units(id.Type)
		if err != nil {
			return nil, err
		}
		out = append(out, MarketInfo{
			Market:        id,
			OnDemandPrice: od,
			Family:        string(id.Type.Family()),
			Units:         units,
		})
	}
	return out, nil
}

// AvailabilityCorrelation returns the Pearson correlation of the two
// markets' detected on-demand outage indicators, sampled over [from, to]
// at the given resolution (default 5 minutes). This is the quantitative
// backing for Chapter 6's "select markets that are independent, i.e.,
// hosted on different physical servers": a good fallback market has a
// correlation near zero (or is never out at all, in which case the
// correlation is also zero).
func (e *Engine) AvailabilityCorrelation(m1, m2 market.SpotID, from, to time.Time, resolution time.Duration) (float64, error) {
	if !to.After(from) {
		return 0, ErrBadWindow
	}
	if resolution <= 0 {
		resolution = 5 * time.Minute
	}
	indicator := func(m market.SpotID) []float64 {
		outs := e.db.OutagesFor(m, store.ProbeOnDemand)
		var series []float64
		for t := from; t.Before(to); t = t.Add(resolution) {
			v := 0.0
			for _, o := range outs {
				end := o.End
				if end.IsZero() {
					end = to
				}
				if !t.Before(o.Start) && t.Before(end) {
					v = 1
					break
				}
			}
			series = append(series, v)
		}
		return series
	}
	return stats.Pearson(indicator(m1), indicator(m2))
}

// PriceStats summarizes a recorded price series over a window.
type PriceStats struct {
	Market  market.SpotID `json:"market"`
	Samples int           `json:"samples"`
	Min     float64       `json:"min"`
	Mean    float64       `json:"mean"`
	Max     float64       `json:"max"`
}

// Prices returns the recorded price points of a market within the window,
// sliced out of the market's shard by binary search.
func (e *Engine) Prices(m market.SpotID, from, to time.Time) ([]store.PricePoint, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	return e.db.PricesIn(m, from, to), nil
}

// PriceSummary computes min/mean/max of the recorded series in a window.
// The fold runs inside the market's shard (store.PriceStatsIn) — no copy
// of the series is allocated — and the result is cached per (market,
// window) until the market's shard sees an append.
func (e *Engine) PriceSummary(m market.SpotID, from, to time.Time) (PriceStats, error) {
	if !to.After(from) {
		return PriceStats{}, ErrBadWindow
	}
	compute := func() (PriceStats, error) {
		w := e.db.PriceStatsIn(m, from, to)
		return PriceStats{Market: m, Samples: w.Samples, Min: w.Min, Mean: w.Mean, Max: w.Max}, nil
	}
	if e.cache == nil {
		return compute()
	}
	gen := e.db.Generation(m)
	key := fmt.Sprintf("pricesum|%s|%d|%d", m, from.UnixNano(), to.UnixNano())
	return memoize(e.cache, key, gen, compute)
}
