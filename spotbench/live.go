package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spotlight/internal/experiment"
	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/store"
	"spotlight/pkg/api"
	"spotlight/pkg/client"
)

const (
	// tickPeriod schedules the live leader's monitor ticks open-loop: one
	// every 2 s, so a snapshot cycle (12 ticks at the production 1 h
	// interval) lasts 24 s, longer than the 4-9 s a snapshot blocks the
	// tick loop, and the backlog drains between snapshots.
	tickPeriod = 2 * time.Second
	// snapshotInterval is the production -snapshot-interval.
	snapshotInterval = time.Hour
	// preTicks run back-to-back on the kept fleet before the measured
	// phase. A resumed service snapshots one interval after its first
	// tick, so without them every run would meet its first snapshot at
	// tick 12, 24 s in; after six, it comes at measured tick 6 (12 s in)
	// and the run sees the ticks before the stall, the stall, and the
	// backlog draining after it. The first tick after a restart blocks
	// for seconds on its own; it is reported as ingest.first_tick_s.
	preTicks = 6
	// liveReadRate is the conditional poller's offered rate (ops/s).
	liveReadRate = 100
)

// genTimeline records when an observer first saw each higher store
// generation.
type genTimeline struct {
	mu   sync.Mutex
	gens []uint64
	at   []time.Time
}

func (g *genTimeline) observe(gen uint64, at time.Time) {
	g.mu.Lock()
	if n := len(g.gens); n == 0 || gen > g.gens[n-1] {
		g.gens = append(g.gens, gen)
		g.at = append(g.at, at)
	}
	g.mu.Unlock()
}

// reached returns when the observer first saw a generation >= gen.
func (g *genTimeline) reached(gen uint64) (time.Time, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := sort.Search(len(g.gens), func(i int) bool { return g.gens[i] >= gen })
	if i == len(g.gens) {
		return time.Time{}, false
	}
	return g.at[i], true
}

func (g *genTimeline) last() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.gens) == 0 {
		return 0
	}
	return g.gens[len(g.gens)-1]
}

// follow drains an in-process store subscription into a timeline.
func follow(sub *store.Subscription, tl *genTimeline, done *sync.WaitGroup) {
	done.Add(1)
	go func() {
		defer done.Done()
		for ev := range sub.Events() {
			tl.observe(ev.Gen, time.Now())
		}
	}()
}

// liveLeader is a durable leader recovered from a data dir, ticked by the
// benchmark's own schedule under the daemon's tick mutex.
type liveLeader struct {
	*node
	st   *experiment.Study
	mu   sync.Mutex
	pers *store.Persister
	open time.Duration
}

func (l *liveLeader) now() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.Sim.Now()
}

func openLeader(b *bench, dir string) (*liveLeader, error) {
	t0 := time.Now()
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		return nil, err
	}
	l := &liveLeader{open: time.Since(t0), pers: db.Persister()}
	if b.tr != nil {
		b.tr.record("store.open", "leader", 0, 0, t0, t0.Add(l.open))
	}
	reg := obs.NewRegistry()
	db.EnableMetrics(reg)
	cfg := experiment.Config{Seed: uint64(b.seed), Days: 1, Tick: studyTick, DB: db, ResumeAt: l.pers.Clock()}
	cfg.Spotlight.SnapshotInterval = snapshotInterval
	if l.st, err = experiment.New(cfg); err != nil {
		l.pers.Close()
		return nil, err
	}
	l.node = newNode(b, "leader", db, reg, l.st.Cat, l.now)
	l.api.SetCacheTTL(tickPeriod)
	l.api.SetETagSalt(l.pers.Salt())
	if err := l.listen(b); err != nil {
		l.pers.Close()
		return nil, err
	}
	return l, nil
}

// copyTree copies a data dir file by file (hard links inside it become
// independent copies), leaving out the directory lock.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if d.Name() == "LOCK" {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// liveFleet is the live workload's fleet: a durable ticking leader, an
// in-memory follower and the gateway.
type liveFleet struct {
	leader *liveLeader
	fol    *follower
	front  *front
	dir    string
}

func bootLive(b *bench, dir string, gen uint64) (*liveFleet, error) {
	l, err := openLeader(b, dir)
	if err != nil {
		return nil, err
	}
	fol, err := startFollower(b, l.srv.url, gen)
	if err != nil {
		l.close()
		l.pers.Close()
		return nil, err
	}
	fr, err := startGateway(b, l.srv.url, fol.srv.url)
	if err != nil {
		fol.close()
		l.close()
		l.pers.Close()
		return nil, err
	}
	f := &liveFleet{leader: l, fol: fol, front: fr, dir: dir}
	if err := checkHealth(fr, 2); err != nil {
		f.discard()
		return nil, err
	}
	return f, nil
}

// discard tears a setup repetition's fleet down without the final
// snapshot: its data dir is thrown away.
func (f *liveFleet) discard() {
	f.front.close()
	f.fol.close()
	f.leader.close()
	f.leader.pers.Abandon()
	os.RemoveAll(f.dir)
}

// startLiveDay writes the day into the template data dir and announces it
// to the load process.
func startLiveDay(b *bench, fsd *fleetSide, tmpl string) (*dataset, error) {
	ds, err := writeDay(b, tmpl)
	if err != nil {
		return nil, err
	}
	from, to := ds.st.Window()
	var markets []string
	for _, id := range ds.st.DB.PricedMarkets() {
		markets = append(markets, id.String())
	}
	// Every leader serves a recovered copy: dropping the build's study
	// keeps a single leader copy of the day in the heap.
	ds.st = nil
	return ds, fsd.emit(fleetMsg{Event: "dataset", BuildS: ds.build.Seconds(), Fingerprint: &ds.fp, Markets: markets, From: from, To: to})
}

// bootLiveFleets serves the setup repetitions: "boot" boots a fleet over a
// fresh copy of the template, "discard" throws it away, and "measure"
// returns the last one. It reports the follower catch-up and returns
// each boot's leader recovery (store.Open) time.
func bootLiveFleets(b *bench, fsd *fleetSide, tmpl string, gen uint64) (*liveFleet, []float64, error) {
	var fl *liveFleet
	var catchups, opens []float64
	for rep := 0; ; rep++ {
		cmd, err := fsd.next()
		if err != nil {
			return nil, nil, err
		}
		switch cmd {
		case "boot":
			dir := filepath.Join(b.tmpDir, fmt.Sprintf("leader-%d", rep))
			if err := copyTree(tmpl, dir); err != nil {
				return nil, nil, err
			}
			if fl, err = bootLive(b, dir, gen); err != nil {
				return nil, nil, err
			}
			if g := fl.leader.db.GlobalGeneration(); g != gen {
				b.violate("leader recovered at generation %d, the day ends at %d", g, gen)
			}
			catchups = append(catchups, fl.fol.catchup.Seconds())
			opens = append(opens, fl.leader.open.Seconds())
			if err := fsd.emit(fleetMsg{Event: "booted", Gateway: fl.front.srv.url, Leader: fl.leader.srv.url}); err != nil {
				return nil, nil, err
			}
		case "discard":
			fl.discard()
			fl = nil
		case "measure":
			if fl == nil {
				return nil, nil, errors.New("measure before any boot")
			}
			os.RemoveAll(tmpl)
			b.set(b.e2e, "replica_catchup_s", median(catchups), "s")
			b.notes = append(b.notes, fmt.Sprintf("follower catch-up per setup repetition: %.3v s", catchups))
			b.notes = append(b.notes, fmt.Sprintf("leader store.Open per setup repetition: %.3v s", opens))
			return fl, opens, nil
		default:
			return nil, nil, fmt.Errorf("unexpected command %q", cmd)
		}
	}
}

// tickRec is one scheduled monitor tick.
type tickRec struct {
	intended, begin, stepped, acked time.Time
	gen                             uint64
	snapshot                        bool
}

// tick runs one monitor tick (Sim.Step + Svc.OnTick) under the tick mutex
// and records its timeline.
func (l *liveLeader) tick(r *tickRec) {
	s0 := regSum(l.reg, "spotlight_store_snapshots_total")
	l.mu.Lock()
	r.begin = time.Now()
	l.st.Sim.Step()
	r.stepped = time.Now()
	l.st.Svc.OnTick()
	r.acked = time.Now()
	l.mu.Unlock()
	r.gen = l.db.GlobalGeneration()
	r.snapshot = regSum(l.reg, "spotlight_store_snapshots_total") > s0
}

// storeCounters are the leader's durability series read around the
// measured phase.
var storeCounters = []string{
	"spotlight_store_append_records_total", "spotlight_store_append_batches_total",
	"spotlight_store_wal_flushed_bytes_total", "spotlight_store_snapshots_total",
	"spotlight_store_snapshot_shards_linked_total", "spotlight_store_snapshot_shards_encoded_total",
}

// fleetLive is the fleet process of the live workload: write the seeded
// day durably once, boot fleets over copies of it on command, then run
// the monitor ticks on their schedule while the load process reads,
// follow every tick to the follower's watcher, close cleanly and recover.
func fleetLive(b *bench, fsd *fleetSide) error {
	tmpl := filepath.Join(b.tmpDir, "template")
	ds, err := startLiveDay(b, fsd, tmpl)
	if err != nil {
		return err
	}
	fl, opens, err := bootLiveFleets(b, fsd, tmpl, ds.fp.Generation)
	if err != nil {
		return err
	}
	b.set(b.extra, "leader_open_s", median(opens), "s")

	l := fl.leader
	ldb, fdb := l.db, fl.fol.db
	var first, pre tickRec
	for i := 0; i < preTicks; i++ {
		l.tick(&pre)
		if i == 0 {
			first = pre
		}
	}
	b.set(b.extra, "ingest.first_tick_s", first.acked.Sub(first.begin).Seconds(), "s")
	if err := waitGen(fdb, pre.gen, 30*time.Second); err != nil {
		return fmt.Errorf("follower after the pre-ticks: %w", err)
	}
	base := newLayerBase(l.node, fl.fol.node, fl.front, fl.fol.rep)
	store0 := readCounters(storeCounters, l.reg)

	// Observers: in-process subscriptions on the leader's and the
	// follower's stores, and one global watcher on the follower. Their
	// buffers hold more events than a run publishes (~450 per tick), so
	// a lag marker can only come from the system, never from an observer.
	var subs sync.WaitGroup
	leaderTL, folTL, watchTL := &genTimeline{}, &genTimeline{}, &genTimeline{}
	lsub := ldb.Feed().Subscribe(store.SubscribeOptions{Buffer: 1 << 16})
	fsub := fdb.Feed().Subscribe(store.SubscribeOptions{Buffer: 1 << 16})
	follow(lsub, leaderTL, &subs)
	follow(fsub, folTL, &subs)
	wc, err := client.New(fl.fol.srv.url, nil)
	if err != nil {
		return err
	}
	wctx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	watch, err := wc.Watch(wctx, client.WatchOptions{Buffer: 1 << 16})
	if err != nil {
		return fmt.Errorf("watcher: %w", err)
	}
	subs.Add(1)
	go func() {
		defer subs.Done()
		for ev := range watch.Events() {
			watchTL.observe(ev.Gen, time.Now())
		}
	}()

	// The monitor ticks, on their schedule, under the daemon's mutex.
	recs := make([]tickRec, int(b.seconds/tickPeriod))
	ticked := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(ticked)
		for k := range recs {
			r := &recs[k]
			r.intended = start.Add(time.Duration(k) * tickPeriod)
			if d := time.Until(r.intended); d > 0 {
				time.Sleep(d)
			}
			l.tick(r)
			if b.tr != nil {
				b.tr.record("sim.step", "leader", 0, 0, r.begin, r.stepped)
				b.tr.record("monitor.tick", "leader", 0, 0, r.stepped, r.acked)
			}
		}
	}()
	if err := fsd.emit(fleetMsg{Event: "measuring"}); err != nil {
		return err
	}
	if cmd, err := fsd.next(); err != nil || cmd != "stop" {
		return fmt.Errorf("want stop, got %q (%v)", cmd, err)
	}
	<-ticked

	// Convergence: the follower and the watcher reach the leader's final
	// generation.
	final := ldb.GlobalGeneration()
	lastAck := recs[len(recs)-1].gen
	if err := waitGen(fdb, final, 30*time.Second); err != nil {
		b.violate("follower never reached the leader's final generation: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for watchTL.last() < final && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := watchTL.last(); got != final {
		b.violate("watcher saw generation %d, leader's final is %d", got, final)
	}
	if err := l.pers.Err(); err != nil {
		b.violate("leader durability error: %v", err)
	}

	// Per-tick freshness, from the scheduled instant.
	var ack, lag, leaderLag, visible, late, step, tick dist
	var snapMax time.Duration
	lost := 0
	for _, r := range recs {
		ack.add(r.acked.Sub(r.intended))
		late.add(r.begin.Sub(r.intended))
		step.add(r.stepped.Sub(r.begin))
		tick.add(r.acked.Sub(r.stepped))
		if r.snapshot {
			snapMax = max(snapMax, r.acked.Sub(r.stepped))
		}
		if t, ok := watchTL.reached(r.gen); ok {
			lag.add(t.Sub(r.intended))
		} else {
			lost++
		}
		if t, ok := leaderTL.reached(r.gen); ok {
			leaderLag.add(t.Sub(r.intended))
		}
		if t, ok := folTL.reached(r.gen); ok {
			visible.add(t.Sub(r.intended))
		}
	}
	res := &fleetResult{Ticks: len(recs), Lost: lost + int(watch.Lagged())}
	a, wl := summarize(ack, time.Millisecond), summarize(lag, time.Millisecond)
	ls, vs, lt := summarize(leaderLag, time.Millisecond), summarize(visible, time.Millisecond), summarize(late, time.Millisecond)
	b.notes = append(b.notes, "ingest ack (ms): "+a.String(), "watch lag (ms): "+wl.String())
	store1 := readCounters(storeCounters, l.reg)
	appended := store0.delta(store1, "spotlight_store_append_records_total")
	wf50, wf99 := regHist(l.reg, "spotlight_store_wal_flush_seconds")
	linked := store0.delta(store1, "spotlight_store_snapshot_shards_linked_total")
	encoded := store0.delta(store1, "spotlight_store_snapshot_shards_encoded_total")
	for _, m := range []struct {
		name string
		v    float64
		unit string
	}{
		{"ingest_ack_p50_ms", a.P50, "ms"},
		{"ingest_ack_p99_ms", a.P99, "ms"},
		{"watch_lag_p50_ms", wl.P50, "ms"},
		{"watch_lag_p99_ms", wl.P99, "ms"},
		{"ingest.tick_late_max_ms", lt.Max, "ms"},
		{"store.snapshot_count", store0.delta(store1, "spotlight_store_snapshots_total"), "count"},
		{"store.snapshot_linked_ratio", ratio(linked, linked+encoded), "ratio"},
		{"store.records_per_batch", ratio(appended, store0.delta(store1, "spotlight_store_append_batches_total")), "count"},
		{"feed.leader_lag_p99_ms", ls.P99, "ms"},
		{"feed.dropped", regSum(l.reg, "spotlight_feed_dropped_total"), "count"},
		{"feed.lagged", regSum(l.reg, "spotlight_feed_lagged_total"), "count"},
		{"replica.visible_lag_p50_ms", vs.P50, "ms"},
		{"replica.visible_lag_p99_ms", vs.P99, "ms"},
		{"watch.lost_events", float64(res.Lost), "count"},
	} {
		b.set(b.extra, m.name, m.v, m.unit)
	}
	b.set(b.layers, "store.wal_flush_p50_ms", wf50*1e3, "ms")
	b.set(b.layers, "store.wal_flush_p99_ms", wf99*1e3, "ms")
	b.set(b.layers, "store.wal_bytes_per_record", ratio(store0.delta(store1, "spotlight_store_wal_flushed_bytes_total"), appended), "B")
	b.set(b.layers, "store.snapshot_max_s", snapMax.Seconds(), "s")
	base.finish(b, step, tick, fl.fol.rep)
	if b.tr != nil {
		// Named spans from the scheduled instant to the follower store's
		// publish cover this share of the watch lag; the rest is SSE
		// delivery to the watcher.
		b.set(b.layers, "trace.covered_share", ratio(vs.P50, wl.P50), "ratio")
		st, tk := summarize(step, time.Millisecond), summarize(tick, time.Millisecond)
		var tb strings.Builder
		fmt.Fprintf(&tb, "write path, live (seed %d): %d ticks, %v snapshots\n", b.seed, len(recs), store0.delta(store1, "spotlight_store_snapshots_total"))
		fmt.Fprintf(&tb, "%-34s %10s %10s\n", "stage (from the scheduled tick)", "p50_ms", "p99_ms")
		for _, row := range []struct {
			name string
			s    summary
		}{
			{"tick start late", lt}, {"sim.step (span)", st}, {"monitor.tick / OnTick (span)", tk},
			{"leader feed visible", ls}, {"follower store visible", vs}, {"watcher received", wl},
		} {
			fmt.Fprintf(&tb, "%-34s %10.2f %10.2f\n", row.name, row.s.P50, row.s.P99)
		}
		fmt.Fprintf(&tb, "covered share of watch_lag_p50 by named spans (tick -> follower store publish): %.3f\n", ratio(vs.P50, wl.P50))
		res.Table = tb.String()
	}

	// End of run: clean close, then repeated recovery of the data dir.
	stopWatch()
	lsub.Close()
	fsub.Close()
	fl.front.close()
	fl.fol.close()
	subs.Wait()
	l.close()
	l.mu.Lock()
	t1 := time.Now()
	cerr := l.st.Svc.Close()
	b.set(b.extra, "close_s", time.Since(t1).Seconds(), "s")
	l.mu.Unlock()
	if cerr != nil {
		b.violate("leader close: %v", cerr)
	}
	b.set(b.e2e, "disk_bytes_per_record", ratio(float64(dirBytes(fl.dir)), float64(final)), "B")
	reopens := reopenDay(b, fl.dir, lastAck)
	b.set(b.e2e, "recovery_s", median(reopens), "s")
	b.result = res
	return nil
}

// tagTransport stamps a traced op's IDs on the requests pkg/client
// sends for it (the op rides in the request context).
type tagTransport struct{ base http.RoundTripper }

type opKey struct{}

func (t tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if o, ok := req.Context().Value(opKey{}).(*op); ok && o.span != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(hdrOp, strconv.FormatUint(o.id, 10))
		req.Header.Set(hdrSpan, strconv.FormatUint(o.span, 10))
	}
	return t.base.RoundTrip(req)
}

// pollExec runs one hot-mix op through the conditional client.
func pollExec(b *bench, c *client.Client) func(*op) error {
	return func(o *op) error {
		if b.tr != nil {
			o.span = b.tr.id()
		}
		ctx := context.WithValue(context.Background(), opKey{}, o)
		m := marketOf(o.req)
		w := api.Last(24 * time.Hour)
		var err error
		switch o.req.kind {
		case "unavailability":
			_, err = c.Unavailability(ctx, m, "spot", w)
		case "prices":
			_, err = c.Prices(ctx, m, w)
		case "stable":
			_, err = c.Stable(ctx, "us-east-1", "", 10, w)
		case "summary":
			var rows []api.RegionSummary
			if rows, err = c.Summary(ctx); err == nil && len(rows) == 0 {
				err = errors.New("empty summary")
			}
		case "batch":
			var resp *api.BatchResponse
			resp, err = c.Batch(ctx,
				api.Query{Kind: api.KindStable, Region: "us-east-1", N: 5, Window: w},
				api.Query{Kind: api.KindSummary},
				api.Query{Kind: api.KindUnavailability, Market: m, Contract: "spot", Window: w})
			for i := 0; err == nil && i < len(resp.Results); i++ {
				if e := resp.Results[i].Error; e != nil {
					err = e
				}
			}
		default:
			areq := api.AdviseRequest{Window: w}
			areq.Regions = []string{"us-east-1"}
			areq.N = 5
			_, err = c.Advise(ctx, areq)
		}
		return err
	}
}

// marketOf extracts the market of a hot-mix request.
func marketOf(r request) string {
	if i := strings.IndexByte(r.path, '?'); i >= 0 {
		if v, err := url.ParseQuery(r.path[i+1:]); err == nil {
			return v.Get("market")
		}
	}
	var br api.BatchRequest
	if r.body != nil && decodeStrict(r.body, &br) == nil && len(br.Queries) == 3 {
		return br.Queries[2].Market
	}
	return ""
}

// loadLive is the load process of the live workload: one conditional
// poller reading the hot mix through the gateway at a fixed rate while
// the fleet ticks.
func loadLive(b *bench, fp *fleetProc, ds fleetMsg) (ops []*op, ps phaseStats, err error) {
	b.conditionsFor(map[string]any{
		"offered_read_rate": liveReadRate, "tick_rate": float64(time.Second) / float64(tickPeriod),
		"ticks": int(b.seconds / tickPeriod), "snapshot_interval": snapshotInterval.String(),
		"study_tick": studyTick.String(), "watchers": 1,
	})
	ks := newKeySpace(true, ds.Markets, market.New(), ds.From, ds.To, b.seed)
	booted, bootS, err := setupFleet(b, fp, ks)
	if err != nil {
		return nil, ps, err
	}
	b.set(b.e2e, "setup_s", ds.BuildS+bootS, "s")
	pc, err := client.New(booted.Gateway, &http.Client{Transport: tagTransport{b.client.hc.Transport}})
	if err != nil {
		return nil, ps, err
	}
	pc.EnableConditionalRequests()
	if err := fp.send("measure"); err != nil {
		return nil, ps, err
	}
	if _, err := fp.expect("measuring"); err != nil {
		return nil, ps, err
	}
	rng := rand.New(rand.NewSource(b.seed*7 + 1))
	offsets := poisson(rng, liveReadRate, b.seconds)
	ops = make([]*op, len(offsets))
	for i := range ops {
		ops[i] = &op{id: uint64(i + 1), req: ks.next(rng)}
	}
	openLoop(ops, offsets, b.nproc, pollExec(b, pc))
	ps = foldOps(ops)
	b.attempted, b.failed = ps.attempted, ps.failed
	if ps.firstErr != nil {
		b.notes = append(b.notes, "first failed op: "+ps.firstErr.Error())
	}
	lat := summarize(ps.latency, time.Millisecond)
	b.set(b.e2e, "read_p50_ms", lat.P50, "ms")
	b.set(b.e2e, "read_p99_ms", lat.P99, "ms")
	b.notes = append(b.notes, "read latency (ms): "+lat.String())
	checkOps(b, ops)
	nm := float64(pc.NotModifiedCount())
	b.set(b.extra, "query.not_modified_ratio", ratio(nm, float64(ps.attempted-ps.failed)), "ratio")
	return ops, ps, nil
}
