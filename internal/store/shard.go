package store

import (
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/market"
)

// probeKinds is the number of contract kinds a shard indexes separately
// (ProbeOnDemand and ProbeSpot).
const probeKinds = 2

// kindIndex maps a ProbeKind to its per-kind slot; records with an
// unknown kind are logged but excluded from per-kind indexes.
func kindIndex(k ProbeKind) (int, bool) {
	if k == ProbeOnDemand || k == ProbeSpot {
		return int(k) - 1, true
	}
	return 0, false
}

// shard holds every record of one spot market behind its own lock, so
// writes to different markets never contend and per-market queries never
// scan other markets' history.
type shard struct {
	mu  sync.RWMutex
	id  market.SpotID
	key string // id.String(), cached for deterministic shard ordering

	// gen counts every record ever appended to this shard (probes, spikes,
	// bid spreads, revocations, prices). It is the per-shard invalidation
	// signal for response caches: any append that could change a query
	// result bumps the generation of exactly one shard, so a cache entry is
	// valid iff the generations of the shards in its scope are unchanged.
	// Atomic so readers never take the shard lock.
	gen atomic.Uint64

	// Record families are stored column-oriented (see columns.go): the
	// windowed folds scan only the columns they read, and captures alias
	// the append-only columns instead of copying them.
	probes      probeCols
	spikes      spikeCols
	bidSpreads  bidSpreadCols
	revocations revocationCols
	prices      priceCols
	outages     outageCols

	// crossings is the incremental index of spikes with Ratio >= 1 (the
	// on-demand price crossings behind every stability/volatility query),
	// stored compactly — queries only need when and how big.
	crossings crossingCols

	// Ordered flags track whether the corresponding slice is appended in
	// non-decreasing time order; while true, window queries binary-search
	// instead of scanning.
	probesOrdered      bool
	spikesOrdered      bool
	crossingsOrdered   bool
	pricesOrdered      bool
	revocationsOrdered bool
	bidSpreadsOrdered  bool
	outagesOrdered     bool // by Start; follows probesOrdered in practice

	// openOutage[k] is 1+index into outages of kind k's ongoing outage;
	// 0 means the kind is currently available.
	openOutage [probeKinds]int

	// rp and rg are the shard's (region, product) and region-level rollup
	// entries, and storeGen the store's global generation counter; every
	// append publishes its rollupDelta to all three. Wired once at shard
	// creation, immutable afterwards.
	rp, rg   *rollup
	storeGen *atomic.Uint64

	// feed is the store's change-feed hub; append paths publish the
	// round's typed events to it alongside the rollup fold. Wired at
	// creation like rp/rg, immutable afterwards.
	feed *Feed

	// wal is the shard's write-ahead log handle, nil for in-memory
	// stores. Like rp/rg it is wired before the shard is published (at
	// creation, or during single-threaded recovery) and immutable after.
	wal *shardWAL

	// metrics is the owning store's instrument block, wired at creation
	// like rp/rg and immutable after; its instruments are nil no-ops
	// until Store.EnableMetrics.
	metrics *storeMetrics
}

// walBufPool recycles the scratch buffers append paths encode WAL frames
// into before taking the shard lock.
var walBufPool = sync.Pool{New: func() any { return new([]byte) }}

// encodeForWAL pre-encodes one or more frames outside the shard lock so
// the lock-held portion of a durable append is a single buffer copy. It
// returns nil when the store is in-memory.
func (sh *shard) encodeForWAL(enc func([]byte) []byte) *[]byte {
	if sh.wal == nil {
		return nil
	}
	bp := walBufPool.Get().(*[]byte)
	*bp = enc((*bp)[:0])
	return bp
}

// walAppendLocked hands pre-encoded frames to the shard's log. Must run
// under sh.mu so the WAL byte order agrees exactly with the in-memory
// append order. The returned flag asks the caller to drain the buffer
// once the shard lock is released (see walFinish).
func (sh *shard) walAppendLocked(bp *[]byte) bool {
	if bp == nil {
		return false
	}
	return sh.wal.append(*bp)
}

// walFinish runs after the shard lock is released: it recycles the
// encode buffer and, when the append left the log's pending buffer over
// its threshold, flushes it to disk without blocking the shard.
func (sh *shard) walFinish(bp *[]byte, oversized bool) {
	if bp == nil {
		return
	}
	walBufPool.Put(bp)
	if oversized {
		sh.wal.flushOversized()
	}
}

// publish folds an append batch's delta into the shard's rollup hierarchy
// and fans the round's events out to the change feed. Ordering carries
// the cache-consistency invariant: the generation counters must only
// become visible once the state they count is readable, otherwise a
// response cache could store a result computed without this append under
// a generation that claims to include it. So publish runs after the shard
// lock is released (shard records land first), each rollup bumps its own
// counter after folding its aggregates (rollup.apply), and the global
// counter — which vouches for every level — bumps last. The feed publish
// runs after that, stamped with the post-append generation, so every
// event a subscriber receives describes state the query surface already
// serves.
func (sh *shard) publish(d *rollupDelta) {
	sh.rp.apply(d)
	sh.rg.apply(d)
	gen := sh.storeGen.Add(d.records)
	sh.metrics.appendBatches.Inc()
	sh.metrics.appendRecords.Add(d.records)
	if len(d.events) > 0 {
		sh.feed.publish(d.events, gen)
	}
}

// armEvents decides once per append round whether the round should
// construct feed events: one atomic load when nobody subscribes.
func (sh *shard) armEvents(d *rollupDelta) {
	d.emit = sh.feed.enabled()
}

func newShard(id market.SpotID) *shard {
	return &shard{
		id:                 id,
		key:                id.String(),
		probesOrdered:      true,
		spikesOrdered:      true,
		crossingsOrdered:   true,
		pricesOrdered:      true,
		revocationsOrdered: true,
		bidSpreadsOrdered:  true,
		outagesOrdered:     true,
	}
}

// appendProbes logs a batch of probes under one lock acquisition,
// amortizing the lock and the rollup fold (one publish per batch) across
// the batch (bulk loads, the monitor tick flush; single appends pass a
// one-record batch). The WAL frames of the whole batch are encoded before
// the lock and land in the same round.
func (sh *shard) appendProbes(rs []ProbeRecord) {
	var d rollupDelta
	sh.armEvents(&d)
	if d.emit {
		// Copy the batch before eventing it: callers (the monitor tick
		// flush) reuse their record buffers across rounds.
		cp := append([]ProbeRecord(nil), rs...)
		d.events = make([]Event, 0, len(cp))
		for i := range cp {
			d.events = append(d.events, Event{Kind: EventProbe, Market: sh.id, At: cp[i].At, Probe: &cp[i]})
		}
	}
	enc := sh.encodeForWAL(func(b []byte) []byte {
		for _, r := range rs {
			b = appendProbeFrame(b, r)
		}
		return b
	})
	sh.mu.Lock()
	for i := range rs {
		sh.appendProbeLocked(&rs[i], &d)
	}
	oversized := sh.walAppendLocked(enc)
	sh.mu.Unlock()
	sh.walFinish(enc, oversized)
	sh.publish(&d)
}

func (sh *shard) appendProbeLocked(r *ProbeRecord, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	if n := sh.probes.n(); n > 0 && r.At.Before(sh.probes.at[n-1]) {
		sh.probesOrdered = false
	}
	sh.probes.push(r)
	d.probeCount++
	d.probeCost += r.Cost

	ki, ok := kindIndex(r.Kind)
	if !ok {
		return
	}
	kd := &d.byKind[ki]
	kd.probes++
	if r.Rejected {
		kd.rejected++
	}
	switch {
	case r.Rejected && sh.openOutage[ki] == 0:
		if n := sh.outages.n(); n > 0 && r.At.Before(sh.outages.start[n-1]) {
			sh.outagesOrdered = false
		}
		sh.outages.push(OutageRecord{
			Market: r.Market, Kind: r.Kind, Start: r.At,
		})
		sh.openOutage[ki] = sh.outages.n()
		kd.outages++
		kd.openOutage(r.At)
		if d.emit {
			cp := sh.outages.get(sh.outages.n()-1, sh.id)
			d.events = append(d.events, Event{Kind: EventOutageOpen, Market: r.Market, At: r.At, Outage: &cp})
		}
	case !r.Rejected && sh.openOutage[ki] != 0:
		oi := sh.openOutage[ki] - 1
		sh.outages.end[oi] = r.At
		start := sh.outages.start[oi]
		sh.openOutage[ki] = 0
		kd.closeOutage(start, r.At.Sub(start))
		if d.emit {
			cp := sh.outages.get(oi, sh.id)
			d.events = append(d.events, Event{Kind: EventOutageClose, Market: r.Market, At: r.At, Outage: &cp})
		}
	}
}

// appendSpikes logs a batch of spike events under one lock round and one
// rollup publish.
func (sh *shard) appendSpikes(es []SpikeEvent) {
	var d rollupDelta
	sh.armEvents(&d)
	if d.emit {
		cp := append([]SpikeEvent(nil), es...)
		d.events = make([]Event, 0, len(cp))
		for i := range cp {
			d.events = append(d.events, Event{Kind: EventSpike, Market: sh.id, At: cp[i].At, Spike: &cp[i]})
		}
	}
	enc := sh.encodeForWAL(func(b []byte) []byte {
		for _, e := range es {
			b = appendSpikeFrame(b, e)
		}
		return b
	})
	sh.mu.Lock()
	for i := range es {
		sh.appendSpikeLocked(&es[i], &d)
	}
	oversized := sh.walAppendLocked(enc)
	sh.mu.Unlock()
	sh.walFinish(enc, oversized)
	sh.publish(&d)
}

func (sh *shard) appendSpikeLocked(e *SpikeEvent, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	d.spikes++
	if n := sh.spikes.n(); n > 0 && e.At.Before(sh.spikes.at[n-1]) {
		sh.spikesOrdered = false
	}
	sh.spikes.push(e)
	if e.Ratio >= 1 {
		if n := sh.crossings.n(); n > 0 && e.At.Before(sh.crossings.at[n-1]) {
			sh.crossingsOrdered = false
		}
		sh.crossings.push(e)
		d.spikesAboveOD++
		if e.Ratio > d.maxCrossRatio {
			d.maxCrossRatio = e.Ratio
		}
	}
}

// appendBidSpreads logs a batch of intrinsic-price search results under
// one lock round and one rollup publish.
func (sh *shard) appendBidSpreads(rs []BidSpreadRecord) {
	var d rollupDelta
	sh.armEvents(&d)
	if d.emit {
		cp := append([]BidSpreadRecord(nil), rs...)
		d.events = make([]Event, 0, len(cp))
		for i := range cp {
			d.events = append(d.events, Event{Kind: EventBidSpread, Market: sh.id, At: cp[i].At, BidSpread: &cp[i]})
		}
	}
	enc := sh.encodeForWAL(func(b []byte) []byte {
		for _, r := range rs {
			b = appendBidSpreadFrame(b, r)
		}
		return b
	})
	sh.mu.Lock()
	for i := range rs {
		sh.appendBidSpreadLocked(&rs[i], &d)
	}
	oversized := sh.walAppendLocked(enc)
	sh.mu.Unlock()
	sh.walFinish(enc, oversized)
	sh.publish(&d)
}

func (sh *shard) appendBidSpreadLocked(r *BidSpreadRecord, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	if n := sh.bidSpreads.n(); n > 0 && r.At.Before(sh.bidSpreads.at[n-1]) {
		sh.bidSpreadsOrdered = false
	}
	sh.bidSpreads.push(r)
}

// appendRevocations logs a batch of revocation watches under one lock
// round and one rollup publish.
func (sh *shard) appendRevocations(rs []RevocationRecord) {
	var d rollupDelta
	sh.armEvents(&d)
	if d.emit {
		cp := append([]RevocationRecord(nil), rs...)
		d.events = make([]Event, 0, len(cp))
		for i := range cp {
			d.events = append(d.events, Event{Kind: EventRevocation, Market: sh.id, At: cp[i].At, Revocation: &cp[i]})
		}
	}
	enc := sh.encodeForWAL(func(b []byte) []byte {
		for _, r := range rs {
			b = appendRevocationFrame(b, r)
		}
		return b
	})
	sh.mu.Lock()
	for i := range rs {
		sh.appendRevocationLocked(&rs[i], &d)
	}
	oversized := sh.walAppendLocked(enc)
	sh.mu.Unlock()
	sh.walFinish(enc, oversized)
	sh.publish(&d)
}

func (sh *shard) appendRevocationLocked(r *RevocationRecord, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	if n := sh.revocations.n(); n > 0 && r.At.Before(sh.revocations.at[n-1]) {
		sh.revocationsOrdered = false
	}
	sh.revocations.push(r)
}

// appendPrices logs a price series under one lock round and one rollup
// publish.
func (sh *shard) appendPrices(ps []PricePoint) {
	var d rollupDelta
	sh.armEvents(&d)
	if d.emit {
		cp := append([]PricePoint(nil), ps...)
		d.events = make([]Event, 0, len(cp))
		for i := range cp {
			d.events = append(d.events, Event{Kind: EventPrice, Market: sh.id, At: cp[i].At, Price: &cp[i]})
		}
	}
	enc := sh.encodeForWAL(func(b []byte) []byte {
		for _, p := range ps {
			b = appendPriceFrame(b, p)
		}
		return b
	})
	sh.mu.Lock()
	for i := range ps {
		sh.appendPriceLocked(&ps[i], &d)
	}
	oversized := sh.walAppendLocked(enc)
	sh.mu.Unlock()
	sh.walFinish(enc, oversized)
	sh.publish(&d)
}

func (sh *shard) appendPriceLocked(p *PricePoint, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	d.price(p.Price)
	if n := sh.prices.n(); n > 0 && p.At.Before(sh.prices.at[n-1]) {
		sh.pricesOrdered = false
	}
	sh.prices.push(p)
}

// shardCapture is one shard's full record state cut under a single lock
// hold — the per-shard consistent cut behind snapshots: no append can land
// in some of a market's record streams and not others.
// The append-only column families are captured zero-copy: the capture
// holds the column slice headers as of the cut, and later appends only
// write past the captured lengths (or into fresh backing arrays). Only
// the outage columns — whose end timestamps are rewritten when an outage
// closes — are deep-copied.
type shardCapture struct {
	id market.SpotID

	// gen is the shard's record count at the cut; per-shard snapshot
	// files use it to detect that a shard is unchanged since the last
	// snapshot (record count never decreases).
	gen uint64

	probes      probeCols
	spikes      spikeCols
	bidSpreads  bidSpreadCols
	revocations revocationCols
	prices      priceCols
	outages     outageCols

	// walErr reports a failed WAL cut when capture also advanced the
	// shard's log epoch (snapshot path only).
	walErr error
}

// capture cuts every record stream of the shard atomically. When
// cutEpoch is nonzero the shard's WAL flushes its pre-cut bytes and
// advances to that epoch inside the same lock hold, which is what makes
// "in the snapshot" and "in a segment the snapshot does not cover"
// mutually exclusive and exhaustive (see Persister.Snapshot).
func (sh *shard) capture(cutEpoch uint64) shardCapture {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := shardCapture{
		id:          sh.id,
		gen:         sh.gen.Load(),
		probes:      sh.probes,
		spikes:      sh.spikes,
		bidSpreads:  sh.bidSpreads,
		revocations: sh.revocations,
		prices:      sh.prices,
		outages:     sh.outages.clone(),
	}
	if cutEpoch != 0 && sh.wal != nil {
		c.walErr = sh.wal.cutTo(cutEpoch)
	}
	return c
}

func (sh *shard) spikesIn(dst []SpikeEvent, from, to time.Time) []SpikeEvent {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.spikes.window(dst, sh.id, sh.spikesOrdered, from, to)
}

func (sh *shard) pricesIn(dst []PricePoint, from, to time.Time) []PricePoint {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.prices.window(dst, sh.pricesOrdered, from, to)
}

func (sh *shard) probesIn(dst []ProbeRecord, from, to time.Time) []ProbeRecord {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.probes.window(dst, sh.id, sh.probesOrdered, from, to)
}

func (sh *shard) revocationsIn(dst []RevocationRecord, from, to time.Time) []RevocationRecord {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.revocations.window(dst, sh.id, sh.revocationsOrdered, from, to)
}

// priceStats folds min/sum/max over the price points inside [from, to]
// without materializing anything: with the columnar layout the fold is a
// linear scan of the bare price column over the binary-searched range.
func (sh *shard) priceStats(from, to time.Time) (samples int, min, sum, max float64) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fold := func(price float64) {
		if samples == 0 || price < min {
			min = price
		}
		if samples == 0 || price > max {
			max = price
		}
		samples++
		sum += price
	}
	if sh.pricesOrdered {
		lo, hi := timeWindow(sh.prices.at, from, to)
		for _, price := range sh.prices.price[lo:hi] {
			fold(price)
		}
		return samples, min, sum, max
	}
	for i, t := range sh.prices.at {
		if t.Before(from) || t.After(to) {
			continue
		}
		fold(sh.prices.price[i])
	}
	return samples, min, sum, max
}

// crossingStats counts the on-demand price crossings inside [from, to] and
// their largest spike ratio, using the incremental crossings index.
func (sh *shard) crossingStats(from, to time.Time) (count int, maxRatio float64) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c := &sh.crossings
	if sh.crossingsOrdered {
		lo, hi := timeWindow(c.at, from, to)
		for _, ratio := range c.ratio[lo:hi] {
			maxRatio = max(maxRatio, ratio)
		}
		return hi - lo, maxRatio
	}
	for i, t := range c.at {
		if inWindow(t, from, to) {
			count++
			maxRatio = max(maxRatio, c.ratio[i])
		}
	}
	return count, maxRatio
}

// outageOverlap sums how much of [from, to] the shard's detected outages of
// one kind cover, without copying the interval list.
func (sh *shard) outageOverlap(kind ProbeKind, from, to time.Time) time.Duration {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	total := time.Duration(0)
	for i, k := range sh.outages.kind {
		if k == kind {
			total += overlapWindow(sh.outages.start[i], sh.outages.end[i], from, to)
		}
	}
	return total
}

// overlapWindow returns how much of [from, to] the interval [start, end]
// covers; a zero end means the interval is still open.
func overlapWindow(start, end, from, to time.Time) time.Duration {
	if end.IsZero() {
		end = to
	}
	if start.Before(from) {
		start = from
	}
	if end.After(to) {
		end = to
	}
	if !end.After(start) {
		return 0
	}
	return end.Sub(start)
}

// Timestamp accessors shared by the window helpers.
func probeAt(r ProbeRecord) time.Time           { return r.At }
func spikeAt(e SpikeEvent) time.Time            { return e.At }
func revocationAt(r RevocationRecord) time.Time { return r.At }
func bidSpreadAt(r BidSpreadRecord) time.Time   { return r.At }
func outageAt(o OutageRecord) time.Time         { return o.Start }
