package experiment

import (
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// TestStudyAppendsInTimeOrder pins a property of the production write
// path: a study's monitors, price trackers, and experiments append every
// market's probe, spike, bid-spread, revocation, and price stream in
// non-decreasing time order. The store does not enforce this (tests and
// replication re-delivery may append out of order); this test records
// that real ingestion never does. The windowed accessors return each
// market's run in append order, so a run that goes back in time is an
// out-of-order append.
func TestStudyAppendsInTimeOrder(t *testing.T) {
	st, err := Run(Config{Seed: 42, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := st.DB
	var from time.Time
	to := time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)

	counts := map[string]int{
		"probe": assertRunsOrdered(t, "probe", db.ProbesInWindow(nil, from, to, nil),
			func(r store.ProbeRecord) (market.SpotID, time.Time) { return r.Market, r.At }),
		"spike": assertRunsOrdered(t, "spike", db.SpikesInWindow(nil, from, to, nil),
			func(e store.SpikeEvent) (market.SpotID, time.Time) { return e.Market, e.At }),
	}
	for _, id := range db.Markets() {
		counts["bid-spread"] += assertRunsOrdered(t, "bid-spread", db.BidSpreadsFor(id),
			func(r store.BidSpreadRecord) (market.SpotID, time.Time) { return r.Market, r.At })
		counts["revocation"] += assertRunsOrdered(t, "revocation", db.RevocationsFor(id, from, to),
			func(r store.RevocationRecord) (market.SpotID, time.Time) { return r.Market, r.At })
	}
	for _, id := range db.PricedMarkets() {
		counts["price"] += assertRunsOrdered(t, "price", db.PricesIn(id, from, to),
			func(p store.PricePoint) (market.SpotID, time.Time) { return id, p.At })
	}
	for family, n := range counts {
		if n == 0 {
			t.Errorf("a 1-day study appended no %s records; the property is vacuous", family)
		}
	}
}

// assertRunsOrdered checks that recs, grouped into per-market runs, are
// non-decreasing in time within each run, and returns len(recs).
func assertRunsOrdered[T any](t *testing.T, family string, recs []T, key func(T) (market.SpotID, time.Time)) int {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		prevID, prevAt := key(recs[i-1])
		id, at := key(recs[i])
		if id == prevID && at.Before(prevAt) {
			t.Errorf("%s stream of %v goes back in time: %v after %v", family, id, at, prevAt)
			return len(recs)
		}
	}
	return len(recs)
}
