package core

import (
	"errors"
	"sort"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// This file implements §3.4's cost control calibration: "SpotLight may
// use historical spot price data for each market to determine a proper
// threshold for a given budget over some probing window", including the
// extension the paper sketches ("we could easily extend the scheme above
// to account for the expected cost of related server probes based on
// historical probing data").

// ThresholdPlan is a calibrated probing configuration.
type ThresholdPlan struct {
	// Threshold is the spike multiple T to probe at with SampleProb 1.
	Threshold float64
	// SampleProb is the sampling ratio p at Threshold.
	SampleProb float64
	// ExpectedDailyCost estimates dollars/day under (Threshold,
	// SampleProb), including related-probe overhead when requested.
	ExpectedDailyCost float64
	// ExpectedDailyProbes estimates trigger probes/day.
	ExpectedDailyProbes float64

	// Alternative is the paper's sampling option: keep the lowest
	// threshold and sample a fraction p of crossings instead, trading
	// complete coverage of rare big spikes for partial coverage of
	// common small ones.
	Alternative *ThresholdPlan
}

// thresholdGrid is the candidate T ladder.
var thresholdGrid = []float64{1, 1.5, 2, 2.5, 3, 4, 5, 6, 7, 8, 9, 10}

// ErrNoHistory is returned when the calibration window contains no spike
// events to learn from.
var ErrNoHistory = errors.New("core: no spike history in calibration window")

// EstimateThreshold calibrates (T, p) for a dollar budget per day from
// the spike history in [from, to]. When includeRelated is true, every
// trigger probe's cost is inflated by the expected related-market fan-out
// (detection rate x cost of probing the §3.2 related set).
func EstimateThreshold(db *store.Store, cat *market.Catalog, budgetPerDay float64, from, to time.Time, includeRelated bool) (ThresholdPlan, error) {
	if budgetPerDay <= 0 {
		return ThresholdPlan{}, errors.New("core: non-positive budget")
	}
	if !to.After(from) {
		return ThresholdPlan{}, errors.New("core: empty calibration window")
	}
	days := to.Sub(from).Hours() / 24
	if days <= 0 {
		return ThresholdPlan{}, errors.New("core: empty calibration window")
	}

	spikes := db.SpikesInWindow(nil, from, to, nil)
	if len(spikes) == 0 {
		return ThresholdPlan{}, ErrNoHistory
	}

	// Detection rate: how often a trigger probe hits an unavailable
	// market (these probes are free, but they trigger the fan-out).
	trigger := db.ProbesInWindow(nil, from, to, func(r store.ProbeRecord) bool {
		return r.Kind == store.ProbeOnDemand && r.Trigger == store.TriggerSpike
	})
	detectionRate := 0.0
	if len(trigger) > 0 {
		rejected := 0
		for _, p := range trigger {
			if p.Rejected {
				rejected++
			}
		}
		detectionRate = float64(rejected) / float64(len(trigger))
	}

	// Per-market costs, cached: a fulfilled trigger probe costs one hour
	// on-demand; a detection additionally costs the related fan-out.
	odPrice := make(map[market.SpotID]float64)
	relCost := make(map[market.SpotID]float64)
	costOf := func(m market.SpotID) float64 {
		od, ok := odPrice[m]
		if !ok {
			od, _ = cat.SpotODPrice(m)
			odPrice[m] = od
		}
		cost := od
		if includeRelated {
			rc, ok := relCost[m]
			if !ok {
				for _, rel := range cat.Related(m) {
					p, err := cat.SpotODPrice(rel)
					if err == nil {
						rc += p
					}
				}
				relCost[m] = rc
			}
			cost += detectionRate * rc
		}
		return cost
	}

	// Daily probing cost at each candidate threshold.
	costAt := func(t float64) (cost, probes float64) {
		for _, sp := range spikes {
			if sp.Ratio <= t {
				continue
			}
			probes++
			cost += costOf(sp.Market)
		}
		return cost / days, probes / days
	}

	base, baseProbes := costAt(thresholdGrid[0])
	if base <= budgetPerDay {
		return ThresholdPlan{
			Threshold:           thresholdGrid[0],
			SampleProb:          1,
			ExpectedDailyCost:   base,
			ExpectedDailyProbes: baseProbes,
		}, nil
	}

	// Find the smallest threshold that fits the budget at p=1.
	idx := sort.Search(len(thresholdGrid), func(i int) bool {
		c, _ := costAt(thresholdGrid[i])
		return c <= budgetPerDay
	})
	plan := ThresholdPlan{Threshold: thresholdGrid[len(thresholdGrid)-1], SampleProb: 1}
	if idx < len(thresholdGrid) {
		plan.Threshold = thresholdGrid[idx]
	}
	plan.ExpectedDailyCost, plan.ExpectedDailyProbes = costAt(plan.Threshold)
	if plan.ExpectedDailyCost > budgetPerDay {
		// Even the rarest events overflow the budget: sample them.
		plan.SampleProb = budgetPerDay / plan.ExpectedDailyCost
		plan.ExpectedDailyCost *= plan.SampleProb
		plan.ExpectedDailyProbes *= plan.SampleProb
	}

	// The sampling alternative: stay at the lowest threshold and sample.
	p := budgetPerDay / base
	plan.Alternative = &ThresholdPlan{
		Threshold:           thresholdGrid[0],
		SampleProb:          p,
		ExpectedDailyCost:   base * p,
		ExpectedDailyProbes: baseProbes * p,
	}
	return plan, nil
}
