package store

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
)

var persistBase = time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)

// crash abandons the persister without flushing or closing, releasing
// the directory flock exactly the way a process death would — the tests'
// stand-in for kill -9.
func (p *Persister) crash() {
	p.lock.Close()
}

func persistMarket(i int) market.SpotID {
	zones := []market.Zone{"us-east-1a", "us-east-1b", "eu-west-1a", "ap-southeast-2a"}
	types := []market.InstanceType{"m3.large", "c3.xlarge"}
	return market.SpotID{
		Zone:    zones[i%len(zones)],
		Type:    types[(i/len(zones))%len(types)],
		Product: market.ProductLinux,
	}
}

// assertStoresEqual compares two stores down to every layer recovery
// rebuilds: record streams and derived outages (via the test-side dump),
// each market's crossing index, rollup aggregates at both scopes, and
// every generation counter.
func assertStoresEqual(t *testing.T, got, want *Store) {
	t.Helper()
	gotJSON, wantJSON := dumpStore(t, got), dumpStore(t, want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("record streams differ:\n got: %.400s\nwant: %.400s", gotJSON, wantJSON)
	}
	now := persistBase.Add(30 * 24 * time.Hour)
	assertScopeAggsEqual(t, "RegionAggregates", got.RegionAggregates(now), want.RegionAggregates(now))
	assertScopeAggsEqual(t, "RegionProductAggregates", got.RegionProductAggregates(now), want.RegionProductAggregates(now))
	if g, w := got.GlobalGeneration(), want.GlobalGeneration(); g != w {
		t.Errorf("GlobalGeneration = %d, want %d", g, w)
	}
	for _, id := range want.Markets() {
		if g, w := got.Generation(id), want.Generation(id); g != w {
			t.Errorf("Generation(%v) = %d, want %d", id, g, w)
		}
		if g, w := got.CrossingStatsFor(id, time.Time{}, now), want.CrossingStatsFor(id, time.Time{}, now); g != w {
			t.Errorf("CrossingStatsFor(%v) = %+v, want %+v", id, g, w)
		}
		r := id.Region()
		if g, w := got.GenerationOfScope(r, id.Product), want.GenerationOfScope(r, id.Product); g != w {
			t.Errorf("GenerationOfScope(%v, %v) = %d, want %d", r, id.Product, g, w)
		}
	}
}

// assertScopeAggsEqual compares rollup aggregates. Every count, duration,
// and min/max must match exactly; the floating-point sums (ProbeCost and
// the PriceMean numerator) may differ in the last ulps because replay
// folds markets in deterministic ID order while the live process folded
// them in arrival order, and float addition is not associative.
func assertScopeAggsEqual(t *testing.T, what string, got, want []ScopeAggregates) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d scopes, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		g, w := got[i], want[i]
		if !floatClose(g.ProbeCost, w.ProbeCost) || !floatClose(g.PriceMean, w.PriceMean) {
			t.Errorf("%s[%d] float sums differ:\n got: %+v\nwant: %+v", what, i, g, w)
		}
		g.ProbeCost, g.PriceMean = w.ProbeCost, w.PriceMean
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s[%d] differ:\n got: %+v\nwant: %+v", what, i, got[i], w)
		}
	}
}

func floatClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := max(abs(a), abs(b))
	return diff <= 1e-9*scale
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// appendWorkload drives every append path once per market: probes with a
// rejection/recovery pair (deriving an outage), spikes above and below
// the crossing threshold, prices, bid spreads, and revocations.
func appendWorkload(s *Store, markets int, perMarket int) {
	for m := 0; m < markets; m++ {
		id := persistMarket(m)
		app := s.Appender(id)
		var batch []ProbeRecord
		for i := 0; i < perMarket; i++ {
			at := persistBase.Add(time.Duration(m*perMarket+i) * time.Minute)
			batch = append(batch, ProbeRecord{
				At: at, Market: id, Kind: ProbeOnDemand, Trigger: TriggerSpike,
				TriggerMarket: id, SourceKind: ProbeSpot,
				SpikeRatio: 1.5, PriceRatio: 1.1,
				Rejected: i%3 == 1, Code: "ICE", Cost: 0.01,
			})
			if i%2 == 0 {
				app.AppendSpike(SpikeEvent{At: at, Market: id, Price: 0.5 + float64(i), Ratio: 0.8 + float64(i%3), Probed: i%4 == 0})
			}
			app.RecordPrice(PricePoint{At: at, Price: 0.1 * float64(i+1)})
		}
		app.AppendProbes(batch)
		app.AppendBidSpread(BidSpreadRecord{At: persistBase.Add(time.Duration(m) * time.Hour), Market: id, Published: 0.5, Intrinsic: 0.3, Attempts: 4})
		app.AppendRevocation(RevocationRecord{At: persistBase.Add(time.Duration(m) * time.Hour), Market: id, Bid: 1.0, Held: 90 * time.Minute})
	}
}

func TestDurableRoundTripAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendWorkload(s, 5, 12)

	oracle := New()
	appendWorkload(oracle, 5, 12)

	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertStoresEqual(t, re, oracle)
	if re.Persister() == nil {
		t.Fatal("reopened store has no persister")
	}
	if err := re.Persister().Close(); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
}

func TestDurableRoundTripWALOnly(t *testing.T) {
	// Flush but never Close: recovery must come entirely from WAL
	// segments, with no snapshot written.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendWorkload(s, 4, 9)
	if err := s.Persister().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*")); len(snaps) != 0 {
		t.Fatalf("unexpected snapshots before any Snapshot call: %v", snaps)
	}

	oracle := New()
	appendWorkload(oracle, 4, 9)

	s.Persister().crash()
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertStoresEqual(t, re, oracle)
}

func TestUnflushedAppendsAreLostCleanly(t *testing.T) {
	// Records appended after the last Flush are not acknowledged; a
	// crash (simulated: reopen without Flush/Close) drops exactly them.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	id := persistMarket(0)
	app := s.Appender(id)
	app.AppendProbe(ProbeRecord{At: persistBase, Market: id, Kind: ProbeSpot})
	if err := s.Persister().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	app.AppendProbe(ProbeRecord{At: persistBase.Add(time.Minute), Market: id, Kind: ProbeSpot})

	s.Persister().crash()
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := re.Generation(id); got != 1 {
		t.Fatalf("recovered generation = %d, want 1 (the flushed record)", got)
	}
}

func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so compaction has files to delete.
	s, err := Open(dir, PersistOptions{SegmentSize: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p := s.Persister()
	appendWorkload(s, 3, 20)
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	preSegs := countSegments(t, dir)
	if preSegs < 3 {
		t.Fatalf("expected rotated segments before snapshot, got %d", preSegs)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if postSegs := countSegments(t, dir); postSegs != 0 {
		t.Errorf("snapshot left %d uncovered segments, want 0", postSegs)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %v, want exactly one", snaps)
	}
	if fi, err := os.Stat(snaps[0]); err != nil || !fi.IsDir() {
		t.Fatalf("snapshot %s is not a v2 directory (err=%v)", snaps[0], err)
	}

	// Post-snapshot appends land in fresh segments and replay on top.
	id := persistMarket(0)
	s.Appender(id).AppendProbe(ProbeRecord{At: persistBase.Add(100 * time.Hour), Market: id, Kind: ProbeSpot, Cost: 0.5})
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush after snapshot: %v", err)
	}

	oracle := New()
	appendWorkload(oracle, 3, 20)
	oracle.AppendProbe(ProbeRecord{At: persistBase.Add(100 * time.Hour), Market: id, Kind: ProbeSpot, Cost: 0.5})

	p.crash()
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertStoresEqual(t, re, oracle)
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*", "seg-*.wal"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	return len(segs)
}

// persistOp is one appended record of the crash-recovery oracle log.
type persistOp struct {
	market market.SpotID
	apply  func(*Store)
}

// TestCrashRecoveryTruncatedWAL is the randomized crash-recovery
// property test: a random append workload runs against a durable store
// (small segments, snapshots and flushes sprinkled in), the active WAL
// segment of a random victim market is hard-truncated at an arbitrary
// byte offset, and the reopened store must exactly match an in-memory
// store replaying the surviving per-shard prefix — crossing indexes,
// rollups, and generations included.
func TestCrashRecoveryTruncatedWAL(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(seed, 0xc4a5))
			dir := t.TempDir()
			s, err := Open(dir, PersistOptions{SegmentSize: 1 << 11})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			p := s.Persister()

			const markets = 6
			var log []persistOp
			appendOne := func() {
				id := persistMarket(rng.IntN(markets))
				at := persistBase.Add(time.Duration(len(log)) * time.Minute)
				var op persistOp
				op.market = id
				switch rng.IntN(5) {
				case 0:
					rec := ProbeRecord{At: at, Market: id, Kind: ProbeKind(1 + rng.IntN(2)),
						Trigger: TriggerRecheck, TriggerMarket: id,
						Rejected: rng.IntN(3) == 0, Code: "cap", Cost: 0.02}
					op.apply = func(st *Store) { st.AppendProbe(rec) }
				case 1:
					e := SpikeEvent{At: at, Market: id, Price: rng.Float64() * 2, Ratio: rng.Float64() * 3, Probed: rng.IntN(2) == 0}
					op.apply = func(st *Store) { st.AppendSpike(e) }
				case 2:
					pt := PricePoint{At: at, Price: rng.Float64()}
					op.apply = func(st *Store) { st.RecordPrice(id, pt) }
				case 3:
					b := BidSpreadRecord{At: at, Market: id, Published: 1, Intrinsic: rng.Float64(), Attempts: rng.IntN(9)}
					op.apply = func(st *Store) { st.AppendBidSpread(b) }
				default:
					rv := RevocationRecord{At: at, Market: id, Bid: 1.2, Held: time.Duration(rng.IntN(3600)) * time.Second}
					op.apply = func(st *Store) { st.AppendRevocation(rv) }
				}
				op.apply(s)
				log = append(log, op)
			}

			steps := 200 + rng.IntN(300)
			for i := 0; i < steps; i++ {
				appendOne()
				if rng.IntN(25) == 0 {
					if err := p.Flush(); err != nil {
						t.Fatalf("Flush: %v", err)
					}
				}
				if rng.IntN(120) == 0 {
					if err := p.Snapshot(); err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
				}
			}
			if err := p.Flush(); err != nil {
				t.Fatalf("final Flush: %v", err)
			}

			// Crash: truncate the victim's newest segment at a random
			// offset, chopping off a suffix of its log (possibly
			// mid-frame).
			p.crash()
			victim := persistMarket(rng.IntN(markets))
			segs, _ := filepath.Glob(filepath.Join(dir, "wal", marketDirName(victim), "seg-*.wal"))
			if len(segs) > 0 {
				sort.Strings(segs)
				target := segs[len(segs)-1]
				info, err := os.Stat(target)
				if err != nil {
					t.Fatalf("stat: %v", err)
				}
				cut := rng.Int64N(info.Size() + 1)
				if err := os.Truncate(target, cut); err != nil {
					t.Fatalf("truncate: %v", err)
				}
			}

			re, err := Open(dir, PersistOptions{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}

			// The recovered victim state must be an exact prefix of its
			// append history; every other market must be complete. Use
			// the recovered per-market generations (== records
			// recovered) to find each prefix length, then replay those
			// prefixes into a pristine in-memory store as the oracle.
			oracle := New()
			applied := make(map[market.SpotID]uint64)
			for _, op := range log {
				if applied[op.market] >= re.Generation(op.market) {
					continue
				}
				op.apply(oracle)
				applied[op.market]++
			}
			for m := 0; m < markets; m++ {
				id := persistMarket(m)
				want := uint64(0)
				for _, op := range log {
					if op.market == id {
						want++
					}
				}
				got := re.Generation(id)
				if got > want {
					t.Fatalf("market %v recovered %d records, more than the %d appended", id, got, want)
				}
				if id != victim && got != want {
					t.Fatalf("untruncated market %v recovered %d of %d records", id, got, want)
				}
			}
			assertStoresEqual(t, re, oracle)
		})
	}
}

func TestPersisterClockAndSalt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p := s.Persister()
	salt := p.Salt()
	if !p.Clock().IsZero() {
		t.Errorf("fresh directory clock = %v, want zero", p.Clock())
	}
	noted := persistBase.Add(42 * time.Hour)
	p.NoteClock(noted)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rp := re.Persister()
	if rp.Salt() != salt {
		t.Errorf("salt changed across restart: %d -> %d", salt, rp.Salt())
	}
	if !rp.Clock().Equal(noted) {
		t.Errorf("clock = %v, want %v", rp.Clock(), noted)
	}
}

func TestClockResumesFromRecoveredRecordsAfterCrash(t *testing.T) {
	// A crash loses the meta clock noted since the last snapshot, but
	// not the flushed records of those ticks. The resume clock must be
	// the newest recovered record, not the stale meta value — otherwise
	// the owner re-simulates (and double-records) a window the store
	// already covers.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p := s.Persister()
	id := persistMarket(0)
	p.NoteClock(persistBase)
	if err := p.Snapshot(); err != nil { // persists clock = persistBase
		t.Fatalf("Snapshot: %v", err)
	}
	newest := persistBase.Add(3 * time.Hour)
	s.Appender(id).AppendProbe(ProbeRecord{At: newest, Market: id, Kind: ProbeSpot})
	p.NoteClock(newest) // noted in memory only; never persisted
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	p.crash()

	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := re.Persister().Clock(); !got.Equal(newest) {
		t.Errorf("resume clock = %v, want newest recovered record %v", got, newest)
	}
}

func TestSaltRotatesAfterCrashOnly(t *testing.T) {
	// A crash rewinds generations to the last flush; if a different
	// record history later reaches the same count, a pre-crash ETag
	// would falsely revalidate. So the effective salt must rotate after
	// a crash — and only after a crash: clean restarts keep validators
	// alive, which the e2e restart test depends on.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	salt := s.Persister().Salt()
	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.Persister().Salt(); got != salt {
		t.Errorf("salt rotated across a clean restart: %d -> %d", salt, got)
	}
	s2.Persister().crash()

	s3, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if got := s3.Persister().Salt(); got == salt {
		t.Error("salt unchanged after a crash; stale pre-crash ETags could answer 304")
	}
	s3.Persister().Close()
}

func TestOpenLocksDataDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := Open(dir, PersistOptions{}); err == nil {
		t.Fatal("second Open of a live data dir succeeded; two writers would corrupt the WAL")
	}
	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	re.Persister().Close()
}

func TestOpenDropsHeaderOnlySegment(t *testing.T) {
	// A crash between a segment's magic write and its first frame write
	// leaves a header-only file for a market that may hold no records at
	// all. Recovery must remove it, so a later append cannot reuse the
	// name and stack a second magic into the same file (which the next
	// recovery would read as corruption, discarding acknowledged frames).
	dir := t.TempDir()
	id := persistMarket(0)
	shardDir := filepath.Join(dir, "wal", marketDirName(id))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(shardDir, segmentName(1, 1))
	if err := os.WriteFile(orphan, []byte(walMagic), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("header-only segment survived recovery: stat err = %v", err)
	}
	s.Appender(id).AppendProbe(ProbeRecord{At: persistBase, Market: id, Kind: ProbeSpot})
	if err := s.Persister().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s.Persister().crash()

	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := re.Generation(id); got != 1 {
		t.Fatalf("recovered generation = %d, want 1", got)
	}
}

func TestOpenFailsOnDamagedNewestSnapshot(t *testing.T) {
	// Compaction deletes the WAL epochs a snapshot covers, so silently
	// falling back past a damaged newest snapshot would present data
	// loss as a successful recovery. Open must refuse instead.
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendWorkload(s, 2, 5)
	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %v, want one", snaps)
	}
	shardFiles, _ := filepath.Glob(filepath.Join(snaps[0], "*.snap"))
	if len(shardFiles) == 0 {
		t.Fatalf("snapshot %s holds no shard files", snaps[0])
	}
	if err := os.WriteFile(shardFiles[0], []byte("SPOTSNP2garbage-frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, PersistOptions{}); err == nil {
		t.Fatal("Open recovered past a damaged newest snapshot instead of failing")
	}
	// Removing the damaged snapshot is the explicit opt-in to recover
	// from whatever remains.
	if err := os.RemoveAll(snaps[0]); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open after removing damaged snapshot: %v", err)
	}
	re.Persister().Close()
}

func TestOpenRejectsBadWALDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "wal", "not-a-market"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, PersistOptions{}); err == nil {
		t.Fatal("Open accepted a WAL directory that is not a market ID")
	}
}

// TestOpenFailsOnLegacyJSONSnapshot: a whole-store snapshot-<SEQ>.json
// from an older release is no longer readable, and compaction already
// deleted the WAL epochs it covered, so Open must refuse the directory —
// naming the file — instead of silently recovering without it.
func TestOpenFailsOnLegacyJSONSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendWorkload(s, 2, 5)
	if err := s.Persister().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	const legacy = "snapshot-00000009.json"
	if err := os.WriteFile(filepath.Join(dir, legacy), []byte(`{"probes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, PersistOptions{})
	if err == nil {
		t.Fatal("Open ignored a legacy JSON snapshot")
	}
	if !strings.Contains(err.Error(), legacy) {
		t.Errorf("Open error %q does not name %s", err, legacy)
	}
}
