package query

import (
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// Outage prediction: the paper evaluates SpotLight's "ability to detect
// and predict periods of unavailability" (Chapter 1). The predictor is
// the Fig 5.4 relationship turned operational: given a live spike of a
// certain size, what is the probability the market's on-demand tier is
// (or will shortly be) unavailable? Estimates use the most specific
// history with enough support: this market's own spikes, then its
// region's, then the global record.

// PredictionBasis names the history level a prediction was computed from.
type PredictionBasis string

// Prediction bases, most specific first.
const (
	BasisMarket PredictionBasis = "market"
	BasisRegion PredictionBasis = "region"
	BasisGlobal PredictionBasis = "global"
)

// OutagePrediction is the predictor's output.
type OutagePrediction struct {
	Market market.SpotID `json:"market"`
	// SpikeRatio is the queried spike size (spot price / od price).
	SpikeRatio float64 `json:"spikeRatio"`
	// Probability is P(on-demand outage within the window | spike of at
	// least this size), from historical co-occurrence.
	Probability float64 `json:"probability"`
	// Samples is the number of historical spikes supporting the
	// estimate.
	Samples int `json:"samples"`
	// Basis says which history level produced the estimate.
	Basis PredictionBasis `json:"basis"`
}

// minPredictionSamples is the support needed before trusting a history
// level.
const minPredictionSamples = 20

// PredictOutage estimates the probability that market m's on-demand tier
// is unavailable within `window` of a spike of the given ratio, learned
// from the spikes and detected outages in [from, to].
func (e *Engine) PredictOutage(m market.SpotID, ratio float64, window time.Duration, from, to time.Time) (OutagePrediction, error) {
	if !to.After(from) {
		return OutagePrediction{}, ErrBadWindow
	}
	if window <= 0 {
		window = 900 * time.Second
	}

	// Outage intervals are fetched per market on demand — each lookup
	// reads only that market's shard — and kept across levels.
	outagesByMarket := make(map[market.SpotID][]store.OutageRecord)
	correlated := func(sp store.SpikeEvent) bool {
		outs, ok := outagesByMarket[sp.Market]
		if !ok {
			outs = e.db.OutagesFor(sp.Market, store.ProbeOnDemand)
			outagesByMarket[sp.Market] = outs
		}
		for _, o := range outs {
			if o.Overlaps(sp.At, sp.At.Add(window)) {
				return true
			}
		}
		return false
	}

	// count pulls only the shards the level's market filter accepts, and
	// only the [from, to] slice of each.
	count := func(keep func(market.SpotID) bool) (total, hits int) {
		for _, sp := range e.db.SpikesInWindow(nil, from, to, keep) {
			if sp.Ratio <= ratio {
				continue
			}
			total++
			if correlated(sp) {
				hits++
			}
		}
		return total, hits
	}

	levels := []struct {
		basis PredictionBasis
		keep  func(market.SpotID) bool
	}{
		{BasisMarket, func(id market.SpotID) bool { return id == m }},
		{BasisRegion, func(id market.SpotID) bool { return id.Region() == m.Region() }},
		{BasisGlobal, nil},
	}
	pred := OutagePrediction{Market: m, SpikeRatio: ratio, Basis: BasisGlobal}
	for _, lv := range levels {
		total, hits := count(lv.keep)
		pred.Samples = total
		pred.Basis = lv.basis
		if total > 0 {
			pred.Probability = float64(hits) / float64(total)
		} else {
			pred.Probability = 0
		}
		if total >= minPredictionSamples {
			break
		}
	}
	return pred, nil
}
