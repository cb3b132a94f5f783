package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"spotlight/internal/experiment"
	"spotlight/internal/gateway"
	"spotlight/internal/market"
	"spotlight/internal/obs"
	"spotlight/internal/query"
	"spotlight/internal/replica"
	"spotlight/internal/store"
	"spotlight/pkg/api"
)

// studyTick is the simulated time one monitor tick covers, as in the
// daemons' default -tick.
const studyTick = 5 * time.Minute

// dataset is one seeded simulated day, built by ticking the study's
// simulator and monitors over a store.
type dataset struct {
	st *experiment.Study
	mu sync.Mutex // owns st.Sim and st.Svc, like the daemon's tick mutex
	// build is the whole build (on a durable store, its clean close
	// included); closeDur is the close alone, which cuts the snapshot.
	build, closeDur time.Duration
	// stepDur / tickDur are the build's Sim.Step and Svc.OnTick spans.
	stepDur, tickDur dist
	reg              *obs.Registry // the build's store series
	diskBytes        int64         // the data dir after the close
	fp               fingerprint
}

// fingerprint identifies a dataset: two runs with the same seed must
// print the same one.
type fingerprint struct {
	Markets     int    `json:"markets"`
	Records     uint64 `json:"records"`
	Prices      int    `json:"prices"`
	Probes      int    `json:"probes"`
	Spikes      int    `json:"spikes"`
	BidSpreads  int    `json:"bid_spreads"`
	Revocations int    `json:"revocations"`
	Generation  uint64 `json:"generation"`
}

func takeFingerprint(db *store.Store) fingerprint {
	fp := fingerprint{
		Markets:     len(db.Markets()),
		Probes:      db.ProbeCount(),
		Spikes:      len(db.Spikes()),
		BidSpreads:  len(db.BidSpreads()),
		Revocations: len(db.Revocations()),
		Generation:  db.GlobalGeneration(),
	}
	for _, id := range db.PricedMarkets() {
		fp.Prices += len(db.Prices(id))
	}
	fp.Records = uint64(fp.Prices + fp.Probes + fp.Spikes + fp.BidSpreads + fp.Revocations)
	return fp
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%d markets, %d records (%d price, %d probe, %d spike, %d bid-spread, %d revocation), generation %d",
		f.Markets, f.Records, f.Prices, f.Probes, f.Spikes, f.BidSpreads, f.Revocations, f.Generation)
}

// buildDay runs one simulated day of the seeded study over db (a fresh
// in-memory store when nil), timing every Sim.Step and Svc.OnTick. A
// durable db takes no snapshot until its owner closes it.
func buildDay(seed uint64, db *store.Store) (*dataset, error) {
	start := time.Now()
	st, err := experiment.New(experiment.Config{Seed: seed, Days: 1, Tick: studyTick, DB: db})
	if err != nil {
		return nil, err
	}
	ds := &dataset{st: st}
	for i := 0; i < int(24*time.Hour/studyTick); i++ {
		t0 := time.Now()
		st.Sim.Step()
		t1 := time.Now()
		st.Svc.OnTick()
		ds.stepDur.add(t1.Sub(t0))
		ds.tickDur.add(time.Since(t1))
	}
	st.End = st.Sim.Now()
	ds.fp = takeFingerprint(st.DB)
	ds.build = time.Since(start)
	return ds, nil
}

// now is the leader's API clock: the simulation clock under the tick
// mutex, exactly as daemon.startLeader serves it.
func (ds *dataset) now() time.Time {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.st.Sim.Now()
}

// writeDay builds the seeded day durably into dir, as a leader running it
// writes it (one WAL flush per tick), and closes it cleanly, which cuts
// the snapshot every fleet boot recovers from.
func writeDay(b *bench, dir string) (*dataset, error) {
	t0 := time.Now()
	db, err := store.Open(dir, store.PersistOptions{})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	db.EnableMetrics(reg)
	ds, err := buildDay(uint64(b.seed), db)
	if err != nil {
		db.Persister().Close()
		return nil, err
	}
	t1 := time.Now()
	if err := ds.st.Svc.Close(); err != nil {
		return nil, fmt.Errorf("closing the day's data dir: %w", err)
	}
	ds.closeDur = time.Since(t1)
	ds.build = time.Since(t0)
	ds.reg = reg
	ds.diskBytes = dirBytes(dir)
	return ds, nil
}

// reopenDay recovers the cleanly closed data dir with store.Open
// recoveryReps times, closing it after each, and returns the Open times.
// Every recovery must come back at generation want.
func reopenDay(b *bench, dir string, want uint64) []float64 {
	var opens []float64
	for i := 0; i < recoveryReps; i++ {
		t0 := time.Now()
		db, err := store.Open(dir, store.PersistOptions{})
		if err != nil {
			b.violate("reopen: %v", err)
			break
		}
		opens = append(opens, time.Since(t0).Seconds())
		if b.tr != nil {
			b.tr.record("store.open", "recovery", 0, 0, t0, time.Now())
		}
		reg := obs.NewRegistry()
		db.EnableMetrics(reg)
		b.set(b.layers, "store.replay_s", regSum(reg, "spotlight_store_replay_seconds"), "s")
		if g := db.GlobalGeneration(); g != want {
			b.violate("reopened store at generation %d, want %d", g, want)
		}
		if err := db.Persister().Close(); err != nil {
			b.violate("close after reopen: %v", err)
		}
	}
	b.notes = append(b.notes, fmt.Sprintf("store.Open of the closed data dir: %.3v s", opens))
	return opens
}

// storeLayers reports the write path as the day's durable build ran it:
// one WAL flush per tick, and the snapshot the clean close cuts.
func (ds *dataset) storeLayers(b *bench) {
	wf50, wf99 := regHist(ds.reg, "spotlight_store_wal_flush_seconds")
	b.set(b.layers, "store.wal_flush_p50_ms", wf50*1e3, "ms")
	b.set(b.layers, "store.wal_flush_p99_ms", wf99*1e3, "ms")
	b.set(b.layers, "store.wal_bytes_per_record", ratio(regSum(ds.reg, "spotlight_store_wal_flushed_bytes_total"), regSum(ds.reg, "spotlight_store_append_records_total")), "B")
	b.set(b.layers, "store.snapshot_max_s", ds.closeDur.Seconds(), "s")
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// server is one loopback HTTP listener.
type server struct {
	srv *http.Server
	url string
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}, url: "http://" + ln.Addr().String()}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
}

// node is one SpotLight store node assembled from the layer
// constructors: store, query engine, query API, HTTP server.
type node struct {
	name string
	db   *store.Store
	api  *query.API
	reg  *obs.Registry
	srv  *server
}

func newNode(b *bench, name string, db *store.Store, reg *obs.Registry, cat *market.Catalog, now func() time.Time) *node {
	n := &node{name: name, db: db, reg: reg}
	n.api = query.NewAPI(query.NewEngine(db, cat), now)
	n.api.EnableMetrics(n.reg)
	if b.tr != nil {
		n.api.SetSlowQuery(time.Nanosecond, b.tr.slowLogger(name))
	}
	n.api.SetWatchLimit(64)
	return n
}

func (n *node) listen(b *bench) error {
	var h http.Handler = n.api.Handler()
	if b.tr != nil {
		h = b.tr.wrapNode(n.name, h)
	}
	s, err := serve(h)
	n.srv = s
	return err
}

func (n *node) close() {
	n.api.Shutdown()
	if n.srv != nil {
		n.srv.close()
	}
}

// follower is an in-memory read replica tailing the leader's /v2/watch.
type follower struct {
	*node
	rep     *replica.Replicator
	catchup time.Duration
}

// startFollower attaches a fresh follower to leaderURL and returns once
// its store has applied every record up to wantGen.
func startFollower(b *bench, leaderURL string, wantGen uint64) (*follower, error) {
	db := store.New()
	reg := obs.NewRegistry()
	db.EnableMetrics(reg)
	start := time.Now()
	rep, err := replica.New(replica.Config{Leader: leaderURL, DB: db, Backfill: 24 * time.Hour})
	if err != nil {
		return nil, err
	}
	rep.EnableMetrics(reg)
	if err := rep.Start(); err != nil {
		return nil, err
	}
	f := &follower{rep: rep}
	select {
	case <-rep.Ready():
	case <-time.After(30 * time.Second):
		rep.Close()
		return nil, fmt.Errorf("follower: no hello from %s within 30s", leaderURL)
	}
	if err := waitGen(db, wantGen, 60*time.Second); err != nil {
		rep.Close()
		return nil, fmt.Errorf("follower catch-up: %w", err)
	}
	f.catchup = time.Since(start)

	f.node = newNode(b, "follower", db, reg, market.New(), rep.Clock)
	f.api.SetReplication(rep.Status)
	if salt, ok := rep.Salt(); ok {
		f.api.SetETagSalt(salt)
	}
	if err := f.listen(b); err != nil {
		rep.Close()
		return nil, err
	}
	return f, nil
}

func (f *follower) close() {
	f.node.close()
	f.rep.Close()
}

// waitGen polls db until its global generation reaches want.
func waitGen(db *store.Store, want uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for db.GlobalGeneration() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("generation %d, want %d after %v", db.GlobalGeneration(), want, limit)
		}
		time.Sleep(time.Millisecond)
	}
	if got := db.GlobalGeneration(); got != want {
		return fmt.Errorf("generation %d overshoots the leader's %d", got, want)
	}
	return nil
}

// front is the scatter-gather gateway over the leader and the follower,
// in replica-fleet mode as the spotload smoke assembles it.
type front struct {
	gw  *gateway.Gateway
	reg *obs.Registry
	srv *server
}

func startGateway(b *bench, nodes ...string) (*front, error) {
	cfg := gateway.Config{Nodes: nodes}
	if b.tr != nil {
		cfg.HTTPClient = &http.Client{Transport: b.tr.wrapTransport(http.DefaultTransport)}
	}
	g, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	fr := &front{gw: g, reg: obs.NewRegistry()}
	g.EnableMetrics(fr.reg)
	var h http.Handler = g.Handler()
	if b.tr != nil {
		h = b.tr.wrapGateway(h)
	}
	if fr.srv, err = serve(h); err != nil {
		return nil, err
	}
	return fr, nil
}

func (fr *front) close() {
	fr.srv.close()
	fr.gw.Close()
}

// checkHealth requires the gateway's aggregated health to list every node
// as reachable.
func checkHealth(fr *front, nodes int) error {
	var h api.Health
	resp, err := http.Get(fr.srv.url + "/v2/health")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway health: HTTP %d", resp.StatusCode)
	}
	if err := decodeStrict(body, &h); err != nil {
		return err
	}
	if h.Gateway == nil || len(h.Gateway.Nodes) != nodes {
		return fmt.Errorf("gateway health lacks the %d-node breakdown", nodes)
	}
	for _, nh := range h.Gateway.Nodes {
		if nh.Status == "unreachable" {
			return fmt.Errorf("node %s unreachable: %s", nh.URL, nh.Error)
		}
	}
	return nil
}
