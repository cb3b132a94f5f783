// Package store is SpotLight's database. Chapter 3 and Chapter 4 describe
// SpotLight logging every probe, every spot-price trigger event, and every
// request state change "into database"; this package is that database,
// with the query surface the analysis layer (Chapter 5) and the query API
// need.
//
// # Sharded design
//
// The store is sharded per spot market (market.SpotID). Each shard owns
// its market's probe, spike, outage, price, bid-spread, and revocation
// history behind its own RWMutex, so ingestion of different markets never
// contends on a global lock, and every per-market query (OutagesFor,
// SpikesFor, Prices, OutageOverlap, ...) touches exactly one shard.
//
// Shards additionally maintain incremental indexes on the write path:
//
//   - derived outage intervals, opened by a rejected probe and closed by
//     the next fulfilled probe of the same contract kind;
//   - an index of on-demand price crossings (spikes with Ratio >= 1),
//     the events behind every stability/volatility ranking;
//   - time-ordered flags per record stream, so window queries
//     binary-search the affected range instead of scanning whole
//     histories.
//
// Per-market folds (CrossingStatsFor, PriceStatsIn, OutageOverlap) run
// inside one shard over those indexes without copying. Global iteration
// methods (Probes, Spikes, Outages, ...) remain available for export and
// offline analysis: they merge across shards in timestamp order,
// resolving ties by market-ID order.
//
// # Rollup hierarchy
//
// Above the shards sits a rollup layer (rollup.go): per-(region, product)
// and per-region aggregates plus append-generation counters, folded in on
// the same append that updates the shard. Scope-wide reads — region
// summaries (RegionAggregates, ScopeAggregatesFor) and cache-validity
// probes (GenerationOfScope, GlobalGeneration) — cost O(regions) or O(1)
// instead of walking every market shard.
package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// ProbeKind distinguishes the two probe families of §2.2.
type ProbeKind int

// Probe kinds.
const (
	// ProbeOnDemand is a request for an on-demand server.
	ProbeOnDemand ProbeKind = iota + 1
	// ProbeSpot is a bid for a spot server.
	ProbeSpot
)

// String names the probe kind.
func (k ProbeKind) String() string {
	switch k {
	case ProbeOnDemand:
		return "on-demand"
	case ProbeSpot:
		return "spot"
	default:
		return "unknown"
	}
}

// ParseProbeKind reverses ProbeKind.String; 0 for unknown names (which
// includes the empty string, so an absent wire field round-trips to the
// zero kind).
func ParseProbeKind(s string) ProbeKind {
	switch s {
	case "on-demand":
		return ProbeOnDemand
	case "spot":
		return ProbeSpot
	default:
		return 0
	}
}

// Trigger records why SpotLight issued a probe (Chapter 3's policy tree
// and Chapter 4's five probing functions).
type Trigger int

// Probe triggers.
const (
	// TriggerSpike: the market's spot price spiked past the threshold
	// (the RequestOnDemand probing function).
	TriggerSpike Trigger = iota + 1
	// TriggerRelatedSameZone: fan-out to the same family in the same
	// zone after a detected rejection (§3.2.1).
	TriggerRelatedSameZone
	// TriggerRelatedOtherZone: fan-out across availability zones
	// (§3.2.2).
	TriggerRelatedOtherZone
	// TriggerRecheck: the periodic re-probe of an unavailable market
	// until it recovers (the RequestInsufficiency loop).
	TriggerRecheck
	// TriggerPeriodicSpot: the periodic CheckCapacity spot probe (§3.3).
	TriggerPeriodicSpot
	// TriggerCross: a probe of the *other* contract type in the same
	// market after a rejection (od→spot or spot→od, §5.4).
	TriggerCross
	// TriggerBidSpread: part of a BidSpread intrinsic-price search.
	TriggerBidSpread
	// TriggerRevocation: a volatile-market revocation experiment probe.
	TriggerRevocation
	// TriggerPeriodicOD: the naive round-robin on-demand probe used by
	// the ablation baseline (probing without the market signal).
	TriggerPeriodicOD
)

// String names the trigger.
func (tr Trigger) String() string {
	switch tr {
	case TriggerSpike:
		return "spike"
	case TriggerRelatedSameZone:
		return "related-same-zone"
	case TriggerRelatedOtherZone:
		return "related-other-zone"
	case TriggerRecheck:
		return "recheck"
	case TriggerPeriodicSpot:
		return "periodic-spot"
	case TriggerCross:
		return "cross"
	case TriggerBidSpread:
		return "bid-spread"
	case TriggerRevocation:
		return "revocation"
	case TriggerPeriodicOD:
		return "periodic-od"
	default:
		return "unknown"
	}
}

// ParseTrigger reverses Trigger.String; 0 for unknown names. Together
// with ParseProbeKind it lets a stream consumer (a read replica) rebuild
// ProbeRecords from their wire form exactly.
func ParseTrigger(s string) Trigger {
	switch s {
	case "spike":
		return TriggerSpike
	case "related-same-zone":
		return TriggerRelatedSameZone
	case "related-other-zone":
		return TriggerRelatedOtherZone
	case "recheck":
		return TriggerRecheck
	case "periodic-spot":
		return TriggerPeriodicSpot
	case "cross":
		return TriggerCross
	case "bid-spread":
		return TriggerBidSpread
	case "revocation":
		return TriggerRevocation
	case "periodic-od":
		return TriggerPeriodicOD
	default:
		return 0
	}
}

// ProbeRecord is one logged probe: the request, why it was sent, and how
// the platform answered.
type ProbeRecord struct {
	At      time.Time     `json:"at"`
	Market  market.SpotID `json:"market"`
	Kind    ProbeKind     `json:"kind"`
	Trigger Trigger       `json:"trigger"`

	// TriggerMarket is the market whose event caused this probe (equal
	// to Market for direct spike probes).
	TriggerMarket market.SpotID `json:"triggerMarket"`
	// SourceKind is the contract kind whose event triggered this probe:
	// for related and cross probes it distinguishes the four pairs of
	// Fig 5.12 (od-od, od-spot, spot-od, spot-spot).
	SourceKind ProbeKind `json:"sourceKind"`
	// SpikeRatio is spot price / on-demand price at the originating
	// trigger, the x-axis of Figs 5.4-5.8.
	SpikeRatio float64 `json:"spikeRatio"`
	// PriceRatio is the probed market's own spot/on-demand ratio at
	// probe time, the x-axis of Figs 5.10-5.11.
	PriceRatio float64 `json:"priceRatio"`

	Rejected bool    `json:"rejected"`
	Code     string  `json:"code"` // platform error/status code when rejected
	Bid      float64 `json:"bid"`  // spot probes only
	Cost     float64 `json:"cost"` // dollars charged for this probe
}

// SpikeEvent is one threshold crossing of a market's spot price, recorded
// whether or not it was sampled for probing.
type SpikeEvent struct {
	At     time.Time     `json:"at"`
	Market market.SpotID `json:"market"`
	Price  float64       `json:"price"`
	Ratio  float64       `json:"ratio"` // price / on-demand price
	Probed bool          `json:"probed"`
}

// OutageRecord is a detected unavailability period for one market and
// contract kind, derived from the probe stream: it opens at the first
// rejected probe and closes at the first subsequent fulfilled probe.
type OutageRecord struct {
	Market market.SpotID `json:"market"`
	Kind   ProbeKind     `json:"kind"`
	Start  time.Time     `json:"start"`
	End    time.Time     `json:"end"` // zero while ongoing
}

// Duration returns the outage length; ongoing outages are measured up to
// now.
func (o OutageRecord) Duration(now time.Time) time.Duration {
	end := o.End
	if end.IsZero() {
		end = now
	}
	return end.Sub(o.Start)
}

// Overlaps reports whether the outage intersects [from, to].
func (o OutageRecord) Overlaps(from, to time.Time) bool {
	if o.Start.After(to) {
		return false
	}
	return o.End.IsZero() || o.End.After(from)
}

// BidSpreadRecord is the outcome of one intrinsic-price search (§5.1.2,
// Chapter 4's BidSpread probing function).
type BidSpreadRecord struct {
	At        time.Time     `json:"at"`
	Market    market.SpotID `json:"market"`
	Published float64       `json:"published"`
	Intrinsic float64       `json:"intrinsic"` // lowest bid that actually wins
	Attempts  int           `json:"attempts"`  // spot requests consumed
}

// PricePoint is one observed published price sample.
type PricePoint struct {
	At    time.Time `json:"at"`
	Price float64   `json:"price"`
}

// RevocationRecord is one completed revocation-watch observation
// (Chapter 4's Revocation probing function): SpotLight held a spot
// instance at the given bid until the platform revoked it.
type RevocationRecord struct {
	At     time.Time     `json:"at"` // when the revocation landed
	Market market.SpotID `json:"market"`
	Bid    float64       `json:"bid"`
	Held   time.Duration `json:"held"` // how long the instance survived
}

// Store is the sharded database: every market's records live in their own
// shard behind their own lock, with incrementally-maintained indexes.
// Writes to different markets never contend, per-market queries touch only
// their shard, and the global iteration methods merge across shards in
// timestamp order. All methods are safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	shards map[market.SpotID]*shard
	// sorted caches the shards in market-ID order for deterministic
	// global iteration; nil when a new shard invalidated it.
	sorted []*shard

	// gen counts every record ever appended, any market — the global
	// scope-generation counter of the rollup hierarchy.
	gen atomic.Uint64
	// rollups holds the hierarchical scope aggregates: one entry per
	// (region, product) seen on the write path plus one region-level entry
	// per region (empty product). rollupList caches them sorted.
	rollups    map[rollupScope]*rollup
	rollupList []*rollup

	// persist is the durability engine of a store opened with Open; nil
	// for in-memory stores built with New. Set once before the store is
	// shared (Open wires it after recovery), immutable afterwards.
	persist *Persister

	// feed is the store's change-feed hub (feed.go): every append round
	// publishes its typed events here after the shard lock is released.
	feed *Feed

	// metrics is the store's instrument block (metrics.go), allocated at
	// construction and shared into every shard; its fields stay nil (all
	// instruments no-ops) until EnableMetrics arms them.
	metrics *storeMetrics
}

// New returns an empty store.
func New() *Store {
	s := &Store{
		shards:  make(map[market.SpotID]*shard),
		rollups: make(map[rollupScope]*rollup),
		metrics: &storeMetrics{},
	}
	s.feed = newFeed(s.gen.Load, defaultRingCapacity)
	return s
}

// shardFor returns the shard of id, creating it on first write.
func (s *Store) shardFor(id market.SpotID) *shard {
	s.mu.RLock()
	sh := s.shards[id]
	s.mu.RUnlock()
	if sh != nil {
		return sh
	}
	return s.adoptShard(newShard(id))
}

// adoptShard publishes sh as its market's shard and returns it, or
// returns the shard that already exists. It serves both shard creation
// (shardFor) and parallel recovery (replay.go), whose shards arrive with
// their records already in the columns; recovery publishes the
// accumulated rollup delta afterwards and gets its WAL handles later,
// from attachPersister. The shard is bound to its region-level and
// (region, product) rollups, which every subsequent append updates in the
// same lock round.
func (s *Store) adoptShard(sh *shard) *shard {
	// Resolve the rollups outside the store lock (rollupFor takes it).
	region := sh.id.Region()
	rp := s.rollupFor(rollupScope{region: region, product: sh.id.Product})
	rg := s.rollupFor(rollupScope{region: region})
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.shards[sh.id]; cur != nil {
		return cur
	}
	sh.rp, sh.rg, sh.storeGen = rp, rg, &s.gen
	sh.feed = s.feed
	sh.metrics = s.metrics
	if s.persist != nil {
		// Minting the WAL handle under the store lock orders it against
		// snapshot epoch bumps (Store.snapshotCut), so a new shard can
		// never log into an epoch a concurrent snapshot claims to cover.
		sh.wal = s.persist.newShardWAL(sh.id)
	}
	s.shards[sh.id] = sh
	s.sorted = nil
	// Shards exist iff they hold at least one record, so adoption is the
	// scope's market count ticking up.
	for _, r := range [...]*rollup{rp, rg} {
		r.mu.Lock()
		r.agg.markets++
		r.mu.Unlock()
	}
	return sh
}

// lookup returns the shard of id without creating it.
func (s *Store) lookup(id market.SpotID) *shard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[id]
}

// shardList returns every shard in market-ID order. The returned slice is
// rebuilt (never mutated) when shards are added, so it is safe to iterate
// without holding the store lock.
func (s *Store) shardList() []*shard {
	s.mu.RLock()
	sorted := s.sorted
	s.mu.RUnlock()
	if sorted != nil {
		return sorted
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorted == nil {
		list := make([]*shard, 0, len(s.shards))
		for _, sh := range s.shards {
			list = append(list, sh)
		}
		sort.Slice(list, func(i, j int) bool { return list[i].key < list[j].key })
		s.sorted = list
	}
	return s.sorted
}

// mergeByTime collects per-shard record slices and merges them into one
// timestamp-ordered slice: records of one shard keep their append order
// and ties across shards resolve by market-ID order. In the common case —
// every shard appended in time order — this is an O(N log k) k-way merge
// over k shards; only when some shard saw out-of-order appends does it
// fall back to concatenating and stable-sorting.
func mergeByTime[T any](shards []*shard, collect func(*shard) ([]T, bool), at func(T) time.Time) []T {
	runs := make([][]T, 0, len(shards))
	total, allOrdered := 0, true
	for _, sh := range shards {
		run, ordered := collect(sh)
		if len(run) == 0 {
			continue
		}
		runs = append(runs, run)
		total += len(run)
		allOrdered = allOrdered && ordered
	}
	switch {
	case len(runs) == 0:
		return nil
	case len(runs) == 1 && allOrdered:
		return runs[0]
	case allOrdered:
		return mergeOrderedRuns(runs, at, total)
	}
	out := make([]T, 0, total)
	for _, run := range runs {
		out = append(out, run...)
	}
	sort.SliceStable(out, func(i, j int) bool { return at(out[i]).Before(at(out[j])) })
	return out
}

// mergeOrderedRuns merges k time-ordered runs with a binary min-heap of
// run cursors. Ties order by run index, which mergeByTime's callers build
// in market-ID order.
func mergeOrderedRuns[T any](runs [][]T, at func(T) time.Time, total int) []T {
	pos := make([]int, len(runs))
	less := func(a, b int) bool {
		ta, tb := at(runs[a][pos[a]]), at(runs[b][pos[b]])
		if !ta.Equal(tb) {
			return ta.Before(tb)
		}
		return a < b
	}
	// heap holds run indices, min at heap[0].
	heap := make([]int, len(runs))
	for i := range runs {
		heap[i] = i
	}
	siftDown := func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < n && less(heap[l], heap[m]) {
				m = l
			}
			if r < n && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	n := len(heap)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	out := make([]T, 0, total)
	for n > 0 {
		r := heap[0]
		out = append(out, runs[r][pos[r]])
		pos[r]++
		if pos[r] == len(runs[r]) {
			heap[0] = heap[n-1]
			n--
		}
		siftDown(0, n)
	}
	return out
}

// appendGrouped splits a batch into per-market groups and hands each to
// its shard's batch append, so a shard's lock is taken once per group
// instead of once per record. Within one market the input order is
// preserved (the outage derivation depends on it); ordering across
// markets is irrelevant because every derived structure is shard-local.
func appendGrouped[T any](s *Store, recs []T, marketOf func(T) market.SpotID, apply func(*shard, []T)) {
	switch len(recs) {
	case 0:
		return
	case 1:
		apply(s.shardFor(marketOf(recs[0])), recs)
		return
	}
	groups := make(map[market.SpotID][]T)
	for _, r := range recs {
		id := marketOf(r)
		groups[id] = append(groups[id], r)
	}
	for id, group := range groups {
		apply(s.shardFor(id), group)
	}
}

func probeMarket(r ProbeRecord) market.SpotID           { return r.Market }
func spikeMarket(e SpikeEvent) market.SpotID            { return e.Market }
func bidSpreadMarket(r BidSpreadRecord) market.SpotID   { return r.Market }
func revocationMarket(r RevocationRecord) market.SpotID { return r.Market }

// AppendProbe logs one probe and folds it into the market's derived outage
// intervals.
func (s *Store) AppendProbe(r ProbeRecord) {
	s.shardFor(r.Market).appendProbes([]ProbeRecord{r})
}

// AppendProbes logs a batch of probes, one shard lock round per affected
// market (see appendGrouped).
func (s *Store) AppendProbes(rs []ProbeRecord) {
	appendGrouped(s, rs, probeMarket, (*shard).appendProbes)
}

// AppendSpike logs one threshold-crossing event and indexes on-demand
// price crossings (Ratio >= 1) incrementally.
func (s *Store) AppendSpike(e SpikeEvent) {
	s.shardFor(e.Market).appendSpikes([]SpikeEvent{e})
}

// AppendSpikes logs a batch of spike events, one shard lock round per
// affected market.
func (s *Store) AppendSpikes(es []SpikeEvent) {
	appendGrouped(s, es, spikeMarket, (*shard).appendSpikes)
}

// AppendBidSpread logs one intrinsic-price search result.
func (s *Store) AppendBidSpread(r BidSpreadRecord) {
	s.shardFor(r.Market).appendBidSpreads([]BidSpreadRecord{r})
}

// AppendBidSpreads logs a batch of intrinsic-price search results, one
// shard lock round per affected market.
func (s *Store) AppendBidSpreads(rs []BidSpreadRecord) {
	appendGrouped(s, rs, bidSpreadMarket, (*shard).appendBidSpreads)
}

// AppendRevocation logs one completed revocation watch.
func (s *Store) AppendRevocation(r RevocationRecord) {
	s.shardFor(r.Market).appendRevocations([]RevocationRecord{r})
}

// AppendRevocations logs a batch of completed revocation watches, one
// shard lock round per affected market.
func (s *Store) AppendRevocations(rs []RevocationRecord) {
	appendGrouped(s, rs, revocationMarket, (*shard).appendRevocations)
}

// RecordPrice appends one price observation for a market. Callers decide
// which markets to track densely (watched markets) versus sample.
func (s *Store) RecordPrice(id market.SpotID, p PricePoint) {
	s.shardFor(id).appendPrices([]PricePoint{p})
}

// RecordPrices appends a batch of price observations for one market in
// one shard lock round, preserving input order.
func (s *Store) RecordPrices(id market.SpotID, ps []PricePoint) {
	if len(ps) == 0 {
		return
	}
	s.shardFor(id).appendPrices(ps)
}

// Markets returns every market with at least one record of any kind, in
// market-ID order.
func (s *Store) Markets() []market.SpotID {
	shards := s.shardList()
	out := make([]market.SpotID, len(shards))
	for i, sh := range shards {
		out[i] = sh.id
	}
	return out
}

// Revocations returns all revocation-watch observations merged across
// shards, oldest first.
func (s *Store) Revocations() []RevocationRecord {
	return mergeByTime(s.shardList(), func(sh *shard) ([]RevocationRecord, bool) {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.revocations.appendTo(nil, sh.id, 0, sh.revocations.n()), sh.revocationsOrdered
	}, revocationAt)
}

// RevocationsFor returns one market's revocation observations within
// [from, to], oldest first when appends were time-ordered.
func (s *Store) RevocationsFor(id market.SpotID, from, to time.Time) []RevocationRecord {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	return sh.revocationsIn(nil, from, to)
}

// Probes returns all probes merged across shards, oldest first.
func (s *Store) Probes() []ProbeRecord {
	return mergeByTime(s.shardList(), func(sh *shard) ([]ProbeRecord, bool) {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.probes.appendTo(nil, sh.id, 0, sh.probes.n()), sh.probesOrdered
	}, probeAt)
}

// ProbesWhere returns copies of probes matching keep, oldest first.
func (s *Store) ProbesWhere(keep func(ProbeRecord) bool) []ProbeRecord {
	return mergeByTime(s.shardList(), func(sh *shard) ([]ProbeRecord, bool) {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		var run []ProbeRecord
		for i := 0; i < sh.probes.n(); i++ {
			if r := sh.probes.get(i, sh.id); keep(r) {
				run = append(run, r)
			}
		}
		return run, sh.probesOrdered // filtering preserves order
	}, probeAt)
}

// ProbesInWindow appends to dst the probes with At inside [from, to],
// optionally filtered by keep, using each shard's time index. Results are
// grouped by market in market-ID order, each market's run in append order.
// Steady callers (pollers re-reading the same window shape) can reuse one
// buffer and read allocation-free once its capacity is warm.
func (s *Store) ProbesInWindow(dst []ProbeRecord, from, to time.Time, keep func(ProbeRecord) bool) []ProbeRecord {
	out := dst
	for _, sh := range s.shardList() {
		start := len(out)
		out = sh.probesIn(out, from, to)
		if keep == nil {
			continue
		}
		kept := out[:start]
		for _, r := range out[start:] {
			if keep(r) {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	return out
}

// ProbeCount returns the number of logged probes.
func (s *Store) ProbeCount() int {
	total := 0
	for _, sh := range s.shardList() {
		sh.mu.RLock()
		total += sh.probes.n()
		sh.mu.RUnlock()
	}
	return total
}

// Spikes returns all spike events merged across shards, oldest first.
func (s *Store) Spikes() []SpikeEvent {
	return mergeByTime(s.shardList(), func(sh *shard) ([]SpikeEvent, bool) {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.spikes.appendTo(nil, sh.id, 0, sh.spikes.n()), sh.spikesOrdered
	}, spikeAt)
}

// SpikesFor returns the spike events of one market within [from, to].
func (s *Store) SpikesFor(id market.SpotID, from, to time.Time) []SpikeEvent {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	return sh.spikesIn(nil, from, to)
}

// SpikesInWindow appends to dst the spike events with At inside [from, to]
// of every market accepted by keep (all markets when keep is nil), using
// each shard's time index. Results are grouped by market in market-ID
// order, each market's run in append order. Steady callers can reuse one
// buffer and read allocation-free once its capacity is warm.
func (s *Store) SpikesInWindow(dst []SpikeEvent, from, to time.Time, keep func(market.SpotID) bool) []SpikeEvent {
	out := dst
	for _, sh := range s.shardList() {
		if keep != nil && !keep(sh.id) {
			continue
		}
		out = sh.spikesIn(out, from, to)
	}
	return out
}

// CrossingStats summarizes one market's on-demand price crossings
// (spikes with Ratio >= 1) inside a window.
type CrossingStats struct {
	// Crossings is how many times the spot price crossed the on-demand
	// price in the window.
	Crossings int
	// MaxRatio is the largest crossing ratio observed in the window.
	MaxRatio float64
}

// SpikeCrossingsWhere returns per-market crossing statistics for [from,
// to] of the markets accepted by keep (all markets when nil), computed
// from each shard's incremental crossings index. Markets with no crossings
// in the window are absent. Shards outside the scope are skipped entirely,
// so a region- or product-filtered ranking touches only the matching
// shards' crossing indexes.
func (s *Store) SpikeCrossingsWhere(from, to time.Time, keep func(market.SpotID) bool) map[market.SpotID]CrossingStats {
	out := make(map[market.SpotID]CrossingStats)
	for _, sh := range s.shardList() {
		if keep != nil && !keep(sh.id) {
			continue
		}
		count, maxRatio := sh.crossingStats(from, to)
		if count > 0 {
			out[sh.id] = CrossingStats{Crossings: count, MaxRatio: maxRatio}
		}
	}
	return out
}

// CrossingStatsFor returns one market's crossing statistics for [from, to]
// from its shard's incremental index; the zero stats when the market has
// no shard.
func (s *Store) CrossingStatsFor(id market.SpotID, from, to time.Time) CrossingStats {
	sh := s.lookup(id)
	if sh == nil {
		return CrossingStats{}
	}
	count, maxRatio := sh.crossingStats(from, to)
	return CrossingStats{Crossings: count, MaxRatio: maxRatio}
}

// BidSpreads returns all intrinsic-price search results merged across
// shards, oldest first.
func (s *Store) BidSpreads() []BidSpreadRecord {
	return mergeByTime(s.shardList(), func(sh *shard) ([]BidSpreadRecord, bool) {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.bidSpreads.appendTo(nil, sh.id, 0, sh.bidSpreads.n()), sh.bidSpreadsOrdered
	}, bidSpreadAt)
}

// BidSpreadsFor returns one market's intrinsic-price search results.
func (s *Store) BidSpreadsFor(id market.SpotID) []BidSpreadRecord {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.bidSpreads.appendTo(nil, sh.id, 0, sh.bidSpreads.n())
}

// Outages returns all detected outage intervals merged across shards,
// ordered by start time; ongoing ones keep a zero End.
func (s *Store) Outages() []OutageRecord {
	return mergeByTime(s.shardList(), func(sh *shard) ([]OutageRecord, bool) {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.outages.appendTo(nil, sh.id, 0, sh.outages.n()), sh.outagesOrdered
	}, outageAt)
}

// OutagesFor returns detected outages for one market and contract kind.
func (s *Store) OutagesFor(id market.SpotID, kind ProbeKind) []OutageRecord {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []OutageRecord
	for i, k := range sh.outages.kind {
		if k == kind {
			out = append(out, sh.outages.get(i, sh.id))
		}
	}
	return out
}

// OutageOverlap returns how much of [from, to] is covered by the market's
// detected outages of the given kind — the window arithmetic behind every
// unavailability query, computed inside the shard without copying.
func (s *Store) OutageOverlap(id market.SpotID, kind ProbeKind, from, to time.Time) time.Duration {
	sh := s.lookup(id)
	if sh == nil {
		return 0
	}
	return sh.outageOverlap(kind, from, to)
}

// Prices returns a copy of the recorded price series of a market.
func (s *Store) Prices(id market.SpotID) []PricePoint {
	sh := s.lookup(id)
	if sh == nil {
		return []PricePoint{}
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]PricePoint, 0, sh.prices.n())
	return sh.prices.appendTo(out, 0, sh.prices.n())
}

// PricesIn returns the recorded price points of a market inside [from, to],
// located by binary search when the series is time-ordered.
func (s *Store) PricesIn(id market.SpotID, from, to time.Time) []PricePoint {
	sh := s.lookup(id)
	if sh == nil {
		return nil
	}
	return sh.pricesIn(nil, from, to)
}

// PriceWindowStats is the windowed price summary of one market, folded
// inside its shard without copying the series.
type PriceWindowStats struct {
	Samples int
	Min     float64
	Mean    float64
	Max     float64
}

// PriceStatsIn computes min/mean/max over the recorded prices of a market
// inside [from, to]. Unlike PricesIn it allocates nothing: the fold runs
// in-shard over the binary-searched window.
func (s *Store) PriceStatsIn(id market.SpotID, from, to time.Time) PriceWindowStats {
	sh := s.lookup(id)
	if sh == nil {
		return PriceWindowStats{}
	}
	samples, min, sum, max := sh.priceStats(from, to)
	st := PriceWindowStats{Samples: samples, Min: min, Max: max}
	if samples > 0 {
		st.Mean = sum / float64(samples)
	}
	return st
}

// PricedMarkets returns the markets with at least one recorded price, in
// market-ID order.
func (s *Store) PricedMarkets() []market.SpotID {
	var out []market.SpotID
	for _, sh := range s.shardList() {
		sh.mu.RLock()
		n := sh.prices.n()
		sh.mu.RUnlock()
		if n > 0 {
			out = append(out, sh.id)
		}
	}
	return out
}

// Generation returns the market's append generation: the number of records
// of any kind ever appended to its shard (0 when the market has no shard).
// Every append bumps exactly one market's generation, so a cached query
// result derived from this market is valid iff the generation is unchanged.
func (s *Store) Generation(id market.SpotID) uint64 {
	sh := s.lookup(id)
	if sh == nil {
		return 0
	}
	return sh.gen.Load()
}
