package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/obs"
)

// Offered open-loop read rates (ops/s) of the fixed-rate phase: well under
// the frozen fleet's closed-loop capacity on two cores, so the phase
// measures latency, not queueing collapse.
const (
	hotRate  = 400
	coldRate = 300
	// setupReps is how many times a run boots its fleet; setup_s reports
	// the median.
	setupReps = 5
	// recoveryReps is how many times a closed data dir is reopened;
	// recovery_s reports the median.
	recoveryReps = 11
	// warmupOps are sent closed-loop through each freshly booted gateway.
	warmupOps = 200
	// sampleOneIn keeps every n-th answer for the leader comparison.
	sampleOneIn = 50
)

// frozenFleet is a leader serving the seeded day without ticking, one
// caught-up follower, and the gateway over both.
type frozenFleet struct {
	leader *node
	fol    *follower
	front  *front
}

func (f *frozenFleet) close() {
	f.front.close()
	f.fol.close()
	f.leader.close()
}

func bootFrozen(b *bench, ds *dataset) (*frozenFleet, error) {
	reg := obs.NewRegistry()
	ds.st.DB.EnableMetrics(reg)
	leader := newNode(b, "leader", ds.st.DB, reg, ds.st.Cat, ds.now)
	leader.api.SetCacheTTL(time.Second)
	if err := leader.listen(b); err != nil {
		return nil, err
	}
	fol, err := startFollower(b, leader.srv.url, ds.fp.Generation)
	if err != nil {
		leader.close()
		return nil, err
	}
	fr, err := startGateway(b, leader.srv.url, fol.srv.url)
	if err != nil {
		fol.close()
		leader.close()
		return nil, err
	}
	f := &frozenFleet{leader: leader, fol: fol, front: fr}
	if err := checkHealth(fr, 2); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// fleetRead is the fleet process of the read workloads: serve the frozen
// fleet through the measured phase, then run the restart phase.
func fleetRead(b *bench, fs *fleetSide) error {
	fp, err := serveFrozen(b, fs)
	if err != nil {
		return err
	}
	return restart(b, fp)
}

// serveFrozen builds the day in memory, boots fleets on command, and
// reports the fleet side of the measured phase. Nothing of the fleet
// outlives it, so the restart phase's heap holds only its own day.
func serveFrozen(b *bench, fs *fleetSide) (fingerprint, error) {
	ds, err := buildDay(uint64(b.seed), nil)
	if err != nil {
		return fingerprint{}, err
	}
	from, to := ds.st.Window()
	var markets []string
	for _, id := range ds.st.DB.PricedMarkets() {
		markets = append(markets, id.String())
	}
	if err := fs.emit(fleetMsg{Event: "dataset", BuildS: ds.build.Seconds(), Fingerprint: &ds.fp, Markets: markets, From: from, To: to}); err != nil {
		return fingerprint{}, err
	}
	var catchups []float64
	var fl *frozenFleet
	for {
		cmd, err := fs.next()
		if err != nil {
			return fingerprint{}, err
		}
		switch cmd {
		case "boot":
			if fl, err = bootFrozen(b, ds); err != nil {
				return fingerprint{}, err
			}
			catchups = append(catchups, fl.fol.catchup.Seconds())
			if err := fs.emit(fleetMsg{Event: "booted", Gateway: fl.front.srv.url, Leader: fl.leader.srv.url}); err != nil {
				return fingerprint{}, err
			}
			continue
		case "discard":
			fl.close()
			fl = nil
			continue
		case "measure":
		default:
			return fingerprint{}, fmt.Errorf("unexpected command %q", cmd)
		}
		break
	}
	defer fl.close()
	base := newLayerBase(fl.leader, fl.fol.node, fl.front, fl.fol.rep)
	if err := fs.emit(fleetMsg{Event: "measuring"}); err != nil {
		return fingerprint{}, err
	}
	for {
		cmd, err := fs.next()
		if err != nil {
			return fingerprint{}, err
		}
		if cmd == "stop" {
			break
		}
		if cmd != "mark" {
			return fingerprint{}, fmt.Errorf("want mark or stop, got %q", cmd)
		}
		base.mark()
		if err := fs.emit(fleetMsg{Event: "marked"}); err != nil {
			return fingerprint{}, err
		}
	}
	if got, want := fl.fol.db.GlobalGeneration(), ds.st.DB.GlobalGeneration(); got != want {
		b.violate("follower generation %d != leader %d", got, want)
	}
	base.finish(b, ds.stepDur, ds.tickDur, fl.fol.rep)
	b.set(b.e2e, "replica_catchup_s", median(catchups), "s")
	b.notes = append(b.notes, fmt.Sprintf("follower catch-up per setup repetition: %.3v s", catchups))
	return ds.fp, nil
}

// restart is the read workloads' last phase, after the reads: write the
// same seeded day durably, as a leader running it writes it, close it
// cleanly, and recover it with store.Open. It measures the write path,
// the snapshot, the disk footprint and recovery on every run.
func restart(b *bench, want fingerprint) error {
	dir := filepath.Join(b.tmpDir, "day")
	ds, err := writeDay(b, dir)
	if err != nil {
		return err
	}
	if ds.fp != want {
		b.violate("the durable day (%s) differs from the served one (%s)", ds.fp, want)
	}
	b.set(b.extra, "durable_write_s", ds.build.Seconds(), "s")
	ds.storeLayers(b)
	b.set(b.e2e, "disk_bytes_per_record", ratio(float64(ds.diskBytes), float64(ds.fp.Generation)), "B")
	b.set(b.e2e, "recovery_s", median(reopenDay(b, dir, ds.fp.Generation)), "s")
	return nil
}

// warmup sends n ops closed-loop through the gateway on the pool's
// connections, so connections exist and the hot caches are filled before
// anything is measured.
func warmup(b *bench, url string, ks *keySpace, seed int64, n int) error {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = ks.next(rng)
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += b.nproc {
				r, err := b.client.do(url, reqs[i], nil)
				if err == nil {
					err = validate(reqs[i].kind, r)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// gatewayExec returns the executor of a read op through the gateway: send,
// validate the payload, enforce the ETag contract, keep the sampled
// answers for the leader comparison.
func (b *bench) gatewayExec(url string, keep func(i int) bool, samples *[]sampled, mu *sync.Mutex) func(*op) error {
	return func(o *op) error {
		var hdr map[string]string
		if b.tr != nil {
			o.span = b.tr.id()
			hdr = map[string]string{hdrOp: strconv.FormatUint(o.id, 10), hdrSpan: strconv.FormatUint(o.span, 10)}
		}
		r, err := b.client.do(url, o.req, hdr)
		if err != nil {
			return err
		}
		if r.status != http.StatusOK {
			return validate(o.req.kind, r)
		}
		fresh, err := b.book.check(o.req, r)
		if err == nil && (fresh || r.etag == "") {
			err = validate(o.req.kind, r)
		}
		if err != nil {
			o.wrong = true
			return err
		}
		if keep != nil && keep(int(o.id)) {
			mu.Lock()
			*samples = append(*samples, sampled{req: o.req, body: r.body})
			mu.Unlock()
		}
		return nil
	}
}

// setupFleet runs the setup repetitions from the load side: each one
// boots a fleet in the fleet process and warms it up through its
// gateway. It returns the kept fleet's URLs and the median repetition.
func setupFleet(b *bench, fp *fleetProc, ks *keySpace) (booted fleetMsg, medianS float64, err error) {
	var reps []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := fp.send("boot"); err != nil {
			return booted, 0, err
		}
		if booted, err = fp.expect("booted"); err != nil {
			return booted, 0, err
		}
		if err := warmup(b, booted.Gateway, ks, b.seed+1000+int64(rep), warmupOps); err != nil {
			return booted, 0, fmt.Errorf("warm-up: %w", err)
		}
		reps = append(reps, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			if err := fp.send("discard"); err != nil {
				return booted, 0, err
			}
		}
	}
	b.set(b.extra, "fleet_boot_s", median(reps), "s")
	b.notes = append(b.notes, fmt.Sprintf("fleet boot + warm-up per setup repetition: %.3v s", reps))
	return booted, median(reps), nil
}

// loadRead is the load process of the read workloads: a fixed-rate
// open-loop phase, then a closed-loop saturation phase, then the
// comparison of sampled answers with the leader's.
func loadRead(b *bench, fp *fleetProc, ds fleetMsg) (ops []*op, ps phaseStats, err error) {
	hot := b.workload == wlReadHot
	rate := float64(coldRate)
	if hot {
		rate = hotRate
	}
	fixed := b.seconds * 3 / 4
	sat := b.seconds - fixed
	b.conditionsFor(map[string]any{
		"offered_read_rate": rate, "fixed_phase_s": fixed.Seconds(), "saturation_phase_s": sat.Seconds(),
		"saturation_connections": b.nproc, "tick_rate": 0, "snapshot_interval": "none (in-memory frozen leader)",
	})
	ks := newKeySpace(hot, ds.Markets, market.New(), ds.From, ds.To, b.seed)
	booted, bootS, err := setupFleet(b, fp, ks)
	if err != nil {
		return nil, ps, err
	}
	b.set(b.e2e, "setup_s", ds.BuildS+bootS, "s")
	if err := fp.send("measure"); err != nil {
		return nil, ps, err
	}
	if _, err := fp.expect("measuring"); err != nil {
		return nil, ps, err
	}

	rng := rand.New(rand.NewSource(b.seed*7 + 1))
	offsets := poisson(rng, rate, fixed)
	ops = make([]*op, len(offsets))
	for i := range ops {
		ops[i] = &op{id: uint64(i + 1), req: ks.next(rng)}
	}
	var samples []sampled
	var smu sync.Mutex
	openLoop(ops, offsets, b.nproc, b.gatewayExec(booted.Gateway, sampleEvery(b.seed, sampleOneIn), &samples, &smu))
	ps = foldOps(ops)
	if err := fp.send("mark"); err != nil {
		return nil, ps, err
	}
	if _, err := fp.expect("marked"); err != nil {
		return nil, ps, err
	}

	rngs := make([]*rand.Rand, b.nproc)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(b.seed*7 + 100 + int64(w)))
	}
	var idMu sync.Mutex
	nextID := uint64(len(ops))
	var satOps []*op
	completed, satFailed := closedLoop(b.nproc, sat, func(w int) *op {
		idMu.Lock()
		defer idMu.Unlock()
		nextID++
		o := &op{id: nextID, req: ks.next(rngs[w])}
		satOps = append(satOps, o)
		return o
	}, b.gatewayExec(booted.Gateway, nil, nil, nil))

	b.attempted = ps.attempted + len(satOps)
	b.failed = ps.failed + satFailed
	all := append(append([]*op(nil), ops...), satOps...)
	for _, o := range all {
		if o.wrong {
			b.violate("op %d (%s): %v", o.id, o.req.kind, o.err)
		}
	}
	checkOps(b, all)
	if ps.firstErr != nil {
		b.notes = append(b.notes, "first failed op: "+ps.firstErr.Error())
	}
	lat := summarize(ps.latency, time.Millisecond)
	b.set(b.e2e, "read_p50_ms", lat.P50, "ms")
	b.set(b.e2e, "read_p99_ms", lat.P99, "ms")
	// Service time runs from the send to the answer: the latency without
	// the generator's lateness and the wait for a connection.
	b.set(b.extra, "read_service_p50_ms", summarize(ps.service, time.Millisecond).P50, "ms")
	b.set(b.extra, "read_saturated_rps", float64(completed)/sat.Seconds(), "1/s")
	b.set(b.extra, "read_samples", float64(lat.N), "count")
	b.notes = append(b.notes, "read latency (ms): "+lat.String())

	// Output check: sampled gateway answers equal the leader's own.
	if err := compareWithLeader(b.client, booted.Leader, samples); err != nil {
		b.violate("%v", err)
	}
	b.set(b.extra, "checked_samples", float64(len(samples)), "count")
	b.set(b.extra, "distinct_etags", float64(b.book.size()), "count")
	return ops, ps, nil
}

// checkOps fails the run if any op failed: every read must succeed, so an
// error status, a refused connection or a transport error is an output
// mismatch just as a wrong answer is.
func checkOps(b *bench, ops []*op) {
	var first *op
	n := 0
	for _, o := range ops {
		if o.failed() {
			if n == 0 {
				first = o
			}
			n++
		}
	}
	if n > 0 {
		b.violate("%d of %d ops failed; first: op %d (%s): %v", n, len(ops), first.id, first.req.kind, first.err)
	}
}
