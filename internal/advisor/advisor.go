// Package advisor is the decision layer over the SpotLight store: given
// workload constraints (capacity floors, price and interruption ceilings,
// a region/product set) it ranks the spot markets the service has price
// history for by a composite score over the store's own rollup
// observations — price statistics, spike/crossing rates, revocation
// history, and live outage state.
//
// The observational queries answer "what is the market doing"; Advise
// answers "what should I run". It backs both the POST /v2/advise endpoint
// (internal/query) and the fleet manager's placement decisions
// (internal/fleet).
package advisor

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// DefaultN is the ranking bound when the constraints do not set one.
const DefaultN = 10

// MaxN caps the ranking bound a single request may ask for.
const MaxN = 100

// BadConstraintError rejects a constraint set: Param names the offending
// field in its wire spelling, Msg says why. The query layer maps it to a
// 400 bad_param envelope.
type BadConstraintError struct {
	Param string
	Msg   string
}

func (e *BadConstraintError) Error() string {
	return fmt.Sprintf("advisor: bad constraint %s: %s", e.Param, e.Msg)
}

// Constraints is the validated, catalog-typed form of
// api.AdviseConstraints. Build one with Advisor.Normalize.
type Constraints struct {
	// Regions is the restriction set, empty for all regions, sorted and
	// deduplicated by Normalize.
	Regions []market.Region
	// Products is the restriction set, empty for all platforms, sorted and
	// deduplicated by Normalize.
	Products []market.Product
	// TypePattern is an exact instance type, a glob ("c3.*"), or empty.
	TypePattern string
	// MinVCPU and MinMemoryGB are per-instance capacity floors; zero means
	// no floor.
	MinVCPU     int
	MinMemoryGB float64
	// MaxPrice caps the window's mean spot price; zero means no cap.
	MaxPrice float64
	// MaxInterruption caps the estimated 1-hour revocation probability in
	// [0,1]; zero means no cap.
	MaxInterruption float64
	// N bounds the ranking, in [1, MaxN].
	N int
}

// Advisor ranks spot markets against workload constraints. It is a plain
// function of the store and the catalog, safe for concurrent use;
// repeated rankings are cached one layer up, in the query API's response
// cache, keyed by ScopeGen among the other inputs.
type Advisor struct {
	db  *store.Store
	cat *market.Catalog
}

// New builds an Advisor over the store and catalog.
func New(db *store.Store, cat *market.Catalog) *Advisor {
	return &Advisor{db: db, cat: cat}
}

// Normalize validates wire constraints against the catalog and converts
// them to the typed form. Unknown regions, unknown products, malformed
// type patterns, and out-of-range numeric fields return a
// *BadConstraintError; an empty region list or a single "all" entry means
// every region.
func (a *Advisor) Normalize(c api.AdviseConstraints) (Constraints, error) {
	var out Constraints

	if !(len(c.Regions) == 1 && c.Regions[0] == "all") {
		seen := make(map[market.Region]bool, len(c.Regions))
		for _, r := range c.Regions {
			reg := market.Region(r)
			if !a.cat.HasRegion(reg) {
				return out, &BadConstraintError{Param: "regions", Msg: fmt.Sprintf("unknown region %q", r)}
			}
			if !seen[reg] {
				seen[reg] = true
				out.Regions = append(out.Regions, reg)
			}
		}
		sort.Slice(out.Regions, func(i, j int) bool { return out.Regions[i] < out.Regions[j] })
	}

	if len(c.Products) > 0 {
		seen := make(map[market.Product]bool, len(c.Products))
		for _, p := range c.Products {
			prod := market.Product(p)
			if !slices.Contains(market.Products, prod) {
				return out, &BadConstraintError{Param: "products", Msg: fmt.Sprintf("unknown product %q", p)}
			}
			if !seen[prod] {
				seen[prod] = true
				out.Products = append(out.Products, prod)
			}
		}
		sort.Slice(out.Products, func(i, j int) bool { return out.Products[i] < out.Products[j] })
	}

	out.TypePattern = c.InstanceTypes
	if strings.ContainsAny(c.InstanceTypes, "*?[") {
		if _, err := path.Match(c.InstanceTypes, "probe"); err != nil {
			return out, &BadConstraintError{Param: "instanceTypes", Msg: fmt.Sprintf("malformed pattern %q", c.InstanceTypes)}
		}
	}

	if c.MinVCPU < 0 {
		return out, &BadConstraintError{Param: "minVCPU", Msg: "must be >= 0"}
	}
	if c.MinMemoryGB < 0 {
		return out, &BadConstraintError{Param: "minMemoryGB", Msg: "must be >= 0"}
	}
	if c.MaxPricePerHour < 0 {
		return out, &BadConstraintError{Param: "maxPricePerHour", Msg: "must be >= 0"}
	}
	if c.MaxInterruptionRate < 0 || c.MaxInterruptionRate > 1 {
		return out, &BadConstraintError{Param: "maxInterruptionRate", Msg: "must be in [0, 1]"}
	}
	if c.N < 0 || c.N > MaxN {
		return out, &BadConstraintError{Param: "n", Msg: fmt.Sprintf("must be in [0, %d]", MaxN)}
	}
	out.MinVCPU = c.MinVCPU
	out.MinMemoryGB = c.MinMemoryGB
	out.MaxPrice = c.MaxPricePerHour
	out.MaxInterruption = c.MaxInterruptionRate
	out.N = c.N
	if out.N == 0 {
		out.N = DefaultN
	}
	return out, nil
}

// ScopeGen returns the store generation of the shards an Advise call with
// these constraints can read: the sum of the per-region scope generations
// when the region set is restricted (each is an append count, so the sum
// moves on any append in scope), the global generation otherwise. It is
// the scope part of the advise spec's ETag and response-cache key.
func (a *Advisor) ScopeGen(c Constraints) uint64 {
	if len(c.Regions) == 0 {
		return a.db.GlobalGeneration()
	}
	var sum uint64
	for _, r := range c.Regions {
		sum += a.db.GenerationOfScope(r, "")
	}
	return sum
}

// Scoring weights: savings dominate (the reason to run spot at all), then
// observed availability, then price stability. A live outage at the
// window end halves the score — the market may still be the right answer
// later, but not for a placement right now.
const (
	weightSavings   = 0.45
	weightAvail     = 0.30
	weightStability = 0.25
	outagePenalty   = 0.5
)

// Advise ranks the markets satisfying c by composite score over [from,
// to]. Only markets with at least one recorded price sample inside the
// window are candidates — the advisor recommends from its own evidence,
// never from catalog price sheets alone. An empty result is a valid
// answer.
func (a *Advisor) Advise(c Constraints, from, to time.Time) []api.AdviseCandidate {
	window := to.Sub(from)
	if window <= 0 {
		return []api.AdviseCandidate{}
	}

	out := []api.AdviseCandidate{}
	for _, id := range a.db.PricedMarkets() {
		if !a.admissible(id, c) {
			continue
		}
		ps := a.db.PriceStatsIn(id, from, to)
		if ps.Samples == 0 {
			continue
		}
		od, err := a.cat.SpotODPrice(id)
		if err != nil || od <= 0 {
			continue
		}
		if c.MaxPrice > 0 && ps.Mean > c.MaxPrice {
			continue
		}

		cs := a.db.CrossingStatsFor(id, from, to)
		interruption := float64(cs.Crossings) * float64(time.Hour) / float64(window)
		if interruption > 1 {
			interruption = 1
		}
		if c.MaxInterruption > 0 && interruption > c.MaxInterruption {
			continue
		}

		spotUnav := float64(a.db.OutageOverlap(id, store.ProbeSpot, from, to)) / float64(window)
		if spotUnav > 1 {
			spotUnav = 1
		}
		live := a.db.OutageOverlap(id, store.ProbeSpot, to.Add(-time.Second), to) > 0 ||
			a.db.OutageOverlap(id, store.ProbeOnDemand, to.Add(-time.Second), to) > 0

		vcpu, _ := a.cat.VCPU(id.Type)
		mem, _ := a.cat.MemoryGB(id.Type)

		savings := 1 - ps.Mean/od
		sav01 := clamp01(savings)
		avail := clamp01(1 - spotUnav)
		stability := 1 / (1 + float64(cs.Crossings))
		score := 100 * (weightSavings*sav01 + weightAvail*avail + weightStability*stability)
		if live {
			score *= outagePenalty
		}

		out = append(out, api.AdviseCandidate{
			Market:             id.String(),
			VCPU:               vcpu,
			MemoryGB:           mem,
			OnDemandPrice:      od,
			SpotPriceMin:       ps.Min,
			SpotPriceMean:      ps.Mean,
			SpotPriceMax:       ps.Max,
			PriceSamples:       ps.Samples,
			SavingsPcnt:        savings * 100,
			Crossings:          cs.Crossings,
			InterruptionRate:   interruption,
			SpotUnavailability: spotUnav,
			Revocations:        len(a.db.RevocationsFor(id, from, to)),
			LiveOutage:         live,
			Score:              score,
		})
	}

	// Deterministic order: score descending, then fewest expected
	// interruptions, then market ID — identical statistics always rank in
	// market-ID order, so repeated evaluations (and every node of a
	// replicated fleet) agree byte-for-byte.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].InterruptionRate != out[j].InterruptionRate {
			return out[i].InterruptionRate < out[j].InterruptionRate
		}
		return out[i].Market < out[j].Market
	})
	if len(out) > c.N {
		out = out[:c.N]
	}
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// admissible applies the catalog-side filters: region set, product set,
// type pattern, and capacity floors.
func (a *Advisor) admissible(id market.SpotID, c Constraints) bool {
	if len(c.Regions) > 0 && !slices.Contains(c.Regions, id.Region()) {
		return false
	}
	if len(c.Products) > 0 && !slices.Contains(c.Products, id.Product) {
		return false
	}
	if !typeMatches(c.TypePattern, id.Type) {
		return false
	}
	if c.MinVCPU > 0 {
		v, err := a.cat.VCPU(id.Type)
		if err != nil || v < c.MinVCPU {
			return false
		}
	}
	if c.MinMemoryGB > 0 {
		m, err := a.cat.MemoryGB(id.Type)
		if err != nil || m < c.MinMemoryGB {
			return false
		}
	}
	return true
}

// typeMatches applies the instanceTypes filter: empty matches everything,
// a glob matches via path.Match, anything else is an exact type.
func typeMatches(pattern string, t market.InstanceType) bool {
	if pattern == "" {
		return true
	}
	if strings.ContainsAny(pattern, "*?[") {
		ok, err := path.Match(pattern, string(t))
		return err == nil && ok
	}
	return pattern == string(t)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
