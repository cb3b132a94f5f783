// Package query implements SpotLight's query interface (Chapter 3:
// "SpotLight exports a query interface that enables applications or users
// to query information about the availability characteristics of
// different server types and contracts"). The Engine answers queries from
// the store; the HTTP layer in this package exposes them to applications
// like SpotCheck and SpotOn for programmatic, automated server selection.
package query

import (
	"errors"
	"sort"
	"time"

	"spotlight/internal/advisor"
	"spotlight/internal/market"
	"spotlight/internal/store"
)

// ErrBadWindow is returned when a query window is empty or inverted.
var ErrBadWindow = errors.New("query: to must be after from")

// Engine answers availability queries from a SpotLight store: each method
// is a plain function of the store and the catalog, with no state of its
// own. Scope-wide reads use the store's rollup hierarchy — Summary reads
// the O(regions) rollup aggregates rather than folding per-market state —
// and the rankings fold per-shard indexes. Repeated questions are
// answered by the API's response cache (cache.go), one layer up, keyed by
// the same spec + scope-generation preimage the ETag hashes.
type Engine struct {
	db  *store.Store
	cat *market.Catalog
	adv *advisor.Advisor
}

// NewEngine builds a query engine over db and the catalog.
func NewEngine(db *store.Store, cat *market.Catalog) *Engine {
	return &Engine{db: db, cat: cat, adv: advisor.New(db, cat)}
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
func (e *Engine) unavailability(m market.SpotID, kind store.ProbeKind, from, to time.Time) (float64, error) {
	if !to.After(from) {
		return 0, ErrBadWindow
	}
	total := e.db.OutageOverlap(m, kind, from, to)
	return float64(total) / float64(to.Sub(from)), nil
}

// ODUnavailability returns the fraction of the window during which the
// market's on-demand tier was detected unavailable.
func (e *Engine) ODUnavailability(m market.SpotID, from, to time.Time) (float64, error) {
	return e.unavailability(m, store.ProbeOnDemand, from, to)
}

// SpotUnavailability returns the fraction of the window during which the
// market's spot tier was detected capacity-not-available.
func (e *Engine) SpotUnavailability(m market.SpotID, from, to time.Time) (float64, error) {
	return e.unavailability(m, store.ProbeSpot, from, to)
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
// stable. Product filters to one platform when non-empty.
func (e *Engine) TopStableMarkets(region market.Region, product market.Product, n int, from, to time.Time) ([]StableMarket, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	if n <= 0 {
		return nil, nil
	}
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
// is walked at all.
func (e *Engine) Summary(now time.Time) []RegionSummary {
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
	return out
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

// Prices returns the recorded price points of a market within the window,
// sliced out of the market's shard by binary search.
func (e *Engine) Prices(m market.SpotID, from, to time.Time) ([]store.PricePoint, error) {
	if !to.After(from) {
		return nil, ErrBadWindow
	}
	return e.db.PricesIn(m, from, to), nil
}
