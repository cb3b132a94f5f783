package store

import (
	"sync/atomic"

	"spotlight/internal/market"
)

// Appender is a write handle bound to one market. Hot ingestion paths
// (the per-market probe managers in internal/core) hold one per monitored
// market, so appends go straight to the shard without a store-level map
// lookup. The shard itself is created lazily on the first write: binding
// an Appender to a never-probed market leaves no trace in the store, so
// Markets() keeps its "at least one record" contract. All methods are
// safe for concurrent use.
//
// Records written through an Appender must target the bound market; the
// Market field of each record is routed by the handle, not re-checked.
type Appender struct {
	store *Store
	id    market.SpotID
	sh    atomic.Pointer[shard]
}

// Appender returns a write handle bound to id. No shard is created until
// the first write through the handle.
func (s *Store) Appender(id market.SpotID) *Appender {
	return &Appender{store: s, id: id}
}

// Market returns the market the handle is bound to.
func (a *Appender) Market() market.SpotID { return a.id }

// shard resolves (and memoizes) the bound market's shard, creating it on
// the first write.
func (a *Appender) shard() *shard {
	if sh := a.sh.Load(); sh != nil {
		return sh
	}
	sh := a.store.shardFor(a.id)
	a.sh.Store(sh)
	return sh
}

// AppendProbe logs one probe of the bound market.
func (a *Appender) AppendProbe(r ProbeRecord) { a.shard().appendProbes([]ProbeRecord{r}) }

// AppendProbes logs a batch of probes of the bound market under a single
// shard-lock acquisition, preserving input order. Use it on replay and
// bulk-load paths where many records for one market arrive together.
func (a *Appender) AppendProbes(rs []ProbeRecord) {
	if len(rs) == 0 {
		return
	}
	a.shard().appendProbes(rs)
}

// AppendSpike logs one threshold crossing of the bound market.
func (a *Appender) AppendSpike(e SpikeEvent) { a.shard().appendSpikes([]SpikeEvent{e}) }

// AppendBidSpread logs one intrinsic-price search of the bound market.
func (a *Appender) AppendBidSpread(r BidSpreadRecord) {
	a.shard().appendBidSpreads([]BidSpreadRecord{r})
}

// AppendRevocation logs one revocation watch of the bound market.
func (a *Appender) AppendRevocation(r RevocationRecord) {
	a.shard().appendRevocations([]RevocationRecord{r})
}

// RecordPrice appends one price observation of the bound market.
func (a *Appender) RecordPrice(p PricePoint) { a.shard().appendPrices([]PricePoint{p}) }
