package store

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"spotlight/internal/market"
)

// TestGenerationCountsEveryRecordKind: every append kind bumps exactly
// its market's generation by one.
func TestGenerationCountsEveryRecordKind(t *testing.T) {
	s := New()
	if g := s.Generation(mktA); g != 0 {
		t.Fatalf("generation of absent market = %d, want 0", g)
	}

	s.AppendProbe(probe(t0, mktA, ProbeOnDemand, false))
	s.AppendSpike(SpikeEvent{At: t0, Market: mktA, Ratio: 2})
	s.AppendBidSpread(BidSpreadRecord{At: t0, Market: mktA, Published: 0.1, Intrinsic: 0.2})
	s.AppendRevocation(RevocationRecord{At: t0, Market: mktA, Bid: 0.3, Held: time.Hour})
	s.RecordPrice(mktA, PricePoint{At: t0, Price: 0.1})
	if g := s.Generation(mktA); g != 5 {
		t.Errorf("generation after 5 mixed appends = %d, want 5", g)
	}
	if g := s.Generation(mktB); g != 0 {
		t.Errorf("untouched market generation = %d, want 0", g)
	}
}

// TestAppendProbesMatchesSingles: the batched append must be
// observationally identical to record-at-a-time appends — same probes,
// same derived outages, same generations — for an interleaved
// multi-market input.
func TestAppendProbesMatchesSingles(t *testing.T) {
	var input []ProbeRecord
	for i := 0; i < 40; i++ {
		m := mktA
		if i%3 == 0 {
			m = mktB
		}
		// Rejection runs open and close outages as they would live.
		rejected := i%8 < 3
		input = append(input, probe(t0.Add(time.Duration(i)*time.Minute), m, ProbeOnDemand, rejected))
	}

	single, batched := New(), New()
	for _, r := range input {
		single.AppendProbe(r)
	}
	batched.AppendProbes(input)

	if !reflect.DeepEqual(single.Probes(), batched.Probes()) {
		t.Errorf("probe logs differ between single and batched appends")
	}
	if !reflect.DeepEqual(single.Outages(), batched.Outages()) {
		t.Errorf("derived outages differ between single and batched appends")
	}
	if single.ProbeCount() != batched.ProbeCount() {
		t.Errorf("probe counts differ: %d vs %d", single.ProbeCount(), batched.ProbeCount())
	}
	for _, m := range []market.SpotID{mktA, mktB} {
		if g1, g2 := single.Generation(m), batched.Generation(m); g1 != g2 {
			t.Errorf("generation of %v differs: %d vs %d", m, g1, g2)
		}
	}
	// Windowed reads (binary-search path) agree too.
	from, to := t0.Add(5*time.Minute), t0.Add(25*time.Minute)
	if !reflect.DeepEqual(single.ProbesInWindow(nil, from, to, nil), batched.ProbesInWindow(nil, from, to, nil)) {
		t.Errorf("windowed probes differ between single and batched appends")
	}
}

// TestAppendProbesEdgeCases: empty and single-record batches.
func TestAppendProbesEdgeCases(t *testing.T) {
	s := New()
	s.AppendProbes(nil)
	if got := s.ProbeCount(); got != 0 {
		t.Errorf("empty batch appended %d probes", got)
	}
	s.AppendProbes([]ProbeRecord{probe(t0, mktA, ProbeSpot, false)})
	if got := s.ProbeCount(); got != 1 {
		t.Errorf("singleton batch appended %d probes, want 1", got)
	}
}

// TestAppenderAppendProbes: the bound-market batch path, concurrently
// with other markets (exercised under -race).
func TestAppenderAppendProbes(t *testing.T) {
	s := New()
	appA, appB := s.Appender(mktA), s.Appender(mktB)
	var wg sync.WaitGroup
	for g, app := range map[int]*Appender{0: appA, 1: appB} {
		wg.Add(1)
		go func(g int, app *Appender) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				batch := []ProbeRecord{
					probe(t0.Add(time.Duration(i)*time.Minute), app.Market(), ProbeOnDemand, false),
					probe(t0.Add(time.Duration(i)*time.Minute+30*time.Second), app.Market(), ProbeSpot, false),
				}
				app.AppendProbes(batch)
			}
		}(g, app)
	}
	wg.Wait()
	if got := s.ProbeCount(); got != 40 {
		t.Errorf("probe count = %d, want 40", got)
	}
	if g := s.Generation(mktA); g != 20 {
		t.Errorf("generation of mktA = %d, want 20", g)
	}
}
