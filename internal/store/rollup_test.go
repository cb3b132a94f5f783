package store

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"spotlight/internal/market"
)

// rollupMarkets spans three regions, two products, and several zones so
// every rollup granularity has more than one shard feeding it.
var rollupMarkets = []market.SpotID{
	{Zone: "us-east-1a", Type: "c3.large", Product: market.ProductLinux},
	{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductWindows},
	{Zone: "us-east-1d", Type: "c3.xlarge", Product: market.ProductLinux},
	{Zone: "us-east-1d", Type: "r3.large", Product: market.ProductLinux},
	{Zone: "eu-west-1a", Type: "c3.large", Product: market.ProductLinux},
	{Zone: "eu-west-1b", Type: "c3.large", Product: market.ProductWindows},
	{Zone: "sa-east-1a", Type: "m3.medium", Product: market.ProductLinux},
}

// recomputeScope rebuilds a scope's aggregates from scratch out of the
// store's exported record iteration — fully independent of the rollup
// fold, so any drift between the incremental and recomputed state is a
// bug in one of them.
func recomputeScope(s *Store, region market.Region, product market.Product, now time.Time) ScopeAggregates {
	in := func(id market.SpotID) bool {
		if region != "" && id.Region() != region {
			return false
		}
		return product == "" || id.Product == product
	}
	out := ScopeAggregates{Region: region, Product: product}
	for _, id := range s.Markets() {
		if in(id) {
			out.Markets++
		}
	}
	for _, r := range s.Probes() {
		if !in(r.Market) {
			continue
		}
		out.TotalProbes++
		out.ProbeCost += r.Cost
		switch r.Kind {
		case ProbeOnDemand:
			out.ODProbes++
			if r.Rejected {
				out.ODRejected++
			}
		case ProbeSpot:
			out.SpotProbes++
			if r.Rejected {
				out.SpotRejected++
			}
		}
	}
	for _, e := range s.Spikes() {
		if !in(e.Market) {
			continue
		}
		out.Spikes++
		if e.Ratio >= 1 {
			out.SpikesAboveOD++
			if e.Ratio > out.MaxCrossRatio {
				out.MaxCrossRatio = e.Ratio
			}
		}
	}
	for _, o := range s.Outages() {
		if !in(o.Market) {
			continue
		}
		switch o.Kind {
		case ProbeOnDemand:
			out.ODOutages++
			out.ODOutageDur += o.Duration(now)
		case ProbeSpot:
			out.SpotOutages++
			out.SpotOutageDur += o.Duration(now)
		}
	}
	sum := 0.0
	for _, id := range s.PricedMarkets() {
		if !in(id) {
			continue
		}
		for _, p := range s.Prices(id) {
			if out.PriceSamples == 0 || p.Price < out.PriceMin {
				out.PriceMin = p.Price
			}
			if out.PriceSamples == 0 || p.Price > out.PriceMax {
				out.PriceMax = p.Price
			}
			out.PriceSamples++
			sum += p.Price
		}
	}
	if out.PriceSamples > 0 {
		out.PriceMean = sum / float64(out.PriceSamples)
	}
	return out
}

// scopeRecords counts every record of any kind inside a scope — what the
// scope's generation must equal.
func scopeRecords(s *Store, region market.Region, product market.Product) uint64 {
	in := func(id market.SpotID) bool {
		if region != "" && id.Region() != region {
			return false
		}
		return product == "" || id.Product == product
	}
	var n uint64
	for _, r := range s.Probes() {
		if in(r.Market) {
			n++
		}
	}
	for _, e := range s.Spikes() {
		if in(e.Market) {
			n++
		}
	}
	for _, r := range s.BidSpreads() {
		if in(r.Market) {
			n++
		}
	}
	for _, r := range s.Revocations() {
		if in(r.Market) {
			n++
		}
	}
	for _, id := range s.PricedMarkets() {
		if in(id) {
			n += uint64(len(s.Prices(id)))
		}
	}
	return n
}

func floatsClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// assertScopeMatches compares a scope's rollup snapshot against the
// from-scratch recomputation. Float fields accumulate in different orders
// on the two sides, so they compare with a relative tolerance; everything
// else must match exactly.
func assertScopeMatches(t *testing.T, s *Store, region market.Region, product market.Product, now time.Time) {
	t.Helper()
	want := recomputeScope(s, region, product, now)
	got, ok := s.ScopeAggregatesFor(region, product, now)
	if !ok && want.Markets > 0 {
		t.Fatalf("scope (%q,%q): rollup missing but %d markets have records", region, product, want.Markets)
	}
	if got.Markets != want.Markets ||
		got.TotalProbes != want.TotalProbes ||
		got.ODProbes != want.ODProbes || got.ODRejected != want.ODRejected ||
		got.SpotProbes != want.SpotProbes || got.SpotRejected != want.SpotRejected ||
		got.ODOutages != want.ODOutages || got.SpotOutages != want.SpotOutages ||
		got.ODOutageDur != want.ODOutageDur || got.SpotOutageDur != want.SpotOutageDur ||
		got.Spikes != want.Spikes || got.SpikesAboveOD != want.SpikesAboveOD ||
		got.MaxCrossRatio != want.MaxCrossRatio ||
		got.PriceSamples != want.PriceSamples ||
		got.PriceMin != want.PriceMin || got.PriceMax != want.PriceMax {
		t.Errorf("scope (%q,%q):\n rollup    %+v\n recompute %+v", region, product, got, want)
	}
	if !floatsClose(got.ProbeCost, want.ProbeCost) {
		t.Errorf("scope (%q,%q): probe cost %v != %v", region, product, got.ProbeCost, want.ProbeCost)
	}
	if !floatsClose(got.PriceMean, want.PriceMean) {
		t.Errorf("scope (%q,%q): price mean %v != %v", region, product, got.PriceMean, want.PriceMean)
	}
	if gen, wantGen := s.GenerationOfScope(region, product), scopeRecords(s, region, product); gen != wantGen {
		t.Errorf("scope (%q,%q): generation %d != %d records", region, product, gen, wantGen)
	}
}

// scopesOf enumerates every rollup granularity touched by the test
// markets: global, each region, each (region, product), each product.
func scopesOf(ids []market.SpotID) [][2]string {
	seen := map[[2]string]bool{{"", ""}: true}
	for _, id := range ids {
		seen[[2]string{string(id.Region()), ""}] = true
		seen[[2]string{string(id.Region()), string(id.Product)}] = true
		seen[[2]string{"", string(id.Product)}] = true
	}
	out := make([][2]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	return out
}

// TestRollupConsistencyRandomized interleaves concurrent appends of every
// record kind across markets in several regions and products, then asserts
// that each rollup scope's aggregates and generation equal a from-scratch
// recomputation over the shard contents. Run under -race in CI, this is
// the consistency contract of the rollup layer: no append may drift the
// hierarchy from its shards.
func TestRollupConsistencyRandomized(t *testing.T) {
	s := New()
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	const goroutines = 8
	const opsPer = 400

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 0xda7a))
			for i := 0; i < opsPer; i++ {
				id := rollupMarkets[rng.IntN(len(rollupMarkets))]
				at := base.Add(time.Duration(rng.IntN(86400)) * time.Second)
				switch rng.IntN(10) {
				case 0, 1, 2, 3: // probes dominate real ingest
					kind := ProbeOnDemand
					if rng.IntN(2) == 0 {
						kind = ProbeSpot
					}
					s.AppendProbe(ProbeRecord{
						At: at, Market: id, Kind: kind,
						Trigger:  TriggerSpike,
						Rejected: rng.IntN(3) == 0,
						Cost:     rng.Float64(),
					})
				case 4, 5: // batched probes, the monitor flush shape
					n := 1 + rng.IntN(6)
					batch := make([]ProbeRecord, n)
					for j := range batch {
						batch[j] = ProbeRecord{
							At: at.Add(time.Duration(j) * time.Second), Market: id,
							Kind: ProbeOnDemand, Rejected: rng.IntN(4) == 0, Cost: 0.1,
						}
					}
					s.AppendProbes(batch)
				case 6:
					s.AppendSpike(SpikeEvent{At: at, Market: id, Price: rng.Float64() * 3, Ratio: rng.Float64() * 3})
				case 7:
					s.RecordPrice(id, PricePoint{At: at, Price: rng.Float64()})
				case 8:
					s.AppendRevocation(RevocationRecord{At: at, Market: id, Bid: 1, Held: time.Hour})
				default:
					s.AppendBidSpread(BidSpreadRecord{At: at, Market: id, Published: 1, Intrinsic: 2, Attempts: 3})
				}
			}
		}(g)
	}
	wg.Wait()

	now := base.Add(48 * time.Hour)
	for _, scope := range scopesOf(rollupMarkets) {
		assertScopeMatches(t, s, market.Region(scope[0]), market.Product(scope[1]), now)
	}
	// The rollup generations must also agree with the sum of the shard
	// generations they shortcut, and with the global counter.
	var shardSum uint64
	for _, id := range s.Markets() {
		shardSum += s.Generation(id)
	}
	if got := s.GenerationOfScope("", ""); got != shardSum {
		t.Errorf("global generation %d != shard generation sum %d", got, shardSum)
	}
	if got := s.GlobalGeneration(); got != shardSum {
		t.Errorf("GlobalGeneration %d != shard generation sum %d", got, shardSum)
	}
}

// TestRollupOpenOutageDuration pins the open-outage arithmetic: an outage
// with no closing probe is measured to the asked-about instant, exactly.
func TestRollupOpenOutageDuration(t *testing.T) {
	s := New()
	base := time.Date(2015, 9, 1, 0, 0, 0, 123456789, time.UTC)
	id := rollupMarkets[0]
	s.AppendProbe(ProbeRecord{At: base, Market: id, Kind: ProbeOnDemand, Rejected: true, Code: "x"})

	now := base.Add(90*time.Minute + 111*time.Nanosecond)
	agg, ok := s.ScopeAggregatesFor(id.Region(), "", now)
	if !ok {
		t.Fatal("region rollup missing")
	}
	if want := now.Sub(base); agg.ODOutageDur != want {
		t.Errorf("open outage duration = %v, want %v", agg.ODOutageDur, want)
	}
	// Closing the outage freezes the duration.
	end := base.Add(30 * time.Minute)
	s.AppendProbe(ProbeRecord{At: end, Market: id, Kind: ProbeOnDemand})
	agg, _ = s.ScopeAggregatesFor(id.Region(), "", now.Add(time.Hour))
	if want := end.Sub(base); agg.ODOutageDur != want {
		t.Errorf("closed outage duration = %v, want %v", agg.ODOutageDur, want)
	}
}

// TestRegionAggregatesOrdering: region-level entries come back in region
// order and region/product entries in (region, product) order.
func TestRegionAggregatesOrdering(t *testing.T) {
	s := New()
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	for _, id := range rollupMarkets {
		s.AppendProbe(ProbeRecord{At: base, Market: id, Kind: ProbeOnDemand})
	}
	regions := s.RegionAggregates(base)
	for i := 1; i < len(regions); i++ {
		if regions[i-1].Region >= regions[i].Region {
			t.Fatalf("region aggregates out of order: %v >= %v", regions[i-1].Region, regions[i].Region)
		}
	}
	if len(regions) != 3 {
		t.Fatalf("got %d region entries, want 3", len(regions))
	}
	rps := s.RegionProductAggregates(base)
	for i := 1; i < len(rps); i++ {
		a, b := rps[i-1], rps[i]
		if a.Region > b.Region || (a.Region == b.Region && a.Product >= b.Product) {
			t.Fatalf("region/product aggregates out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestPriceStatsInMatchesPricesIn: the in-shard fold must agree with the
// copy-then-scan path it replaces, on both ordered and unordered series.
func TestPriceStatsInMatchesPricesIn(t *testing.T) {
	s := New()
	base := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	id := rollupMarkets[0]
	// Out-of-order appends flip the shard to scan mode.
	offsets := []int{5, 2, 9, 1, 7, 3, 8, 0, 6, 4}
	for i, off := range offsets {
		s.RecordPrice(id, PricePoint{At: base.Add(time.Duration(off) * time.Hour), Price: float64(i%4) + 0.5})
	}
	from, to := base.Add(2*time.Hour), base.Add(8*time.Hour)
	st := s.PriceStatsIn(id, from, to)
	pts := s.PricesIn(id, from, to)
	if st.Samples != len(pts) {
		t.Fatalf("samples = %d, want %d", st.Samples, len(pts))
	}
	min, max, sum := pts[0].Price, pts[0].Price, 0.0
	for _, p := range pts {
		if p.Price < min {
			min = p.Price
		}
		if p.Price > max {
			max = p.Price
		}
		sum += p.Price
	}
	if st.Min != min || st.Max != max || !floatsClose(st.Mean, sum/float64(len(pts))) {
		t.Errorf("stats %+v, want min=%v mean=%v max=%v", st, min, sum/float64(len(pts)), max)
	}
	if empty := s.PriceStatsIn(rollupMarkets[1], from, to); empty.Samples != 0 {
		t.Errorf("missing market stats = %+v, want zero", empty)
	}
}
