package main

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/gateway"
	"spotlight/internal/obs"
)

func TestPoissonIsSeededAndBounded(t *testing.T) {
	a := poisson(rand.New(rand.NewSource(7)), 1000, time.Second)
	b := poisson(rand.New(rand.NewSource(7)), 1000, time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i] >= time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or past the phase", i, a[i])
		}
	}
	if len(a) < 850 || len(a) > 1150 {
		t.Fatalf("%d arrivals in 1s at 1000/s", len(a))
	}
}

// A system slower than the schedule must show its backlog: latency is
// taken from the intended send time, not from when a worker got to it.
func TestOpenLoopLatencyCountsQueueing(t *testing.T) {
	const service = 20 * time.Millisecond
	ops := make([]*op, 5)
	offsets := make([]time.Duration, len(ops))
	for i := range ops {
		ops[i] = &op{id: uint64(i + 1)}
		offsets[i] = time.Duration(i) * time.Millisecond
	}
	openLoop(ops, offsets, 1, func(*op) error {
		time.Sleep(service)
		return nil
	})
	last := ops[len(ops)-1]
	if got, min := last.latency(), 5*service-4*time.Millisecond; got < min {
		t.Fatalf("last op latency %v, want >= %v (four ops queued ahead of it)", got, min)
	}
	if last.serviceT() > 2*service {
		t.Fatalf("service time %v should exclude the queue", last.serviceT())
	}
	if last.connWait() < 3*service {
		t.Fatalf("conn wait %v should hold the queueing", last.connWait())
	}
	for _, o := range ops {
		if o.latency() != o.sendLate()+o.connWait()+o.serviceT() {
			t.Fatalf("op %d: latency %v is not late+wait+service", o.id, o.latency())
		}
	}
	s := foldOps(ops)
	if s.attempted != 5 || s.failed != 0 || len(s.latency) != 5 {
		t.Fatalf("fold: %+v", s)
	}
}

// The schedule ends on time and every op already scheduled drains to
// completion: nothing in flight is cancelled.
func TestOpenLoopDrainsInFlightOps(t *testing.T) {
	var finished atomic.Int64
	ops := make([]*op, 4)
	offsets := make([]time.Duration, len(ops))
	for i := range ops {
		ops[i] = &op{id: uint64(i + 1)}
	}
	start := time.Now()
	openLoop(ops, offsets, 2, func(*op) error {
		time.Sleep(100 * time.Millisecond)
		finished.Add(1)
		return nil
	})
	if finished.Load() != 4 {
		t.Fatalf("%d of 4 ops finished before openLoop returned", finished.Load())
	}
	if time.Since(start) < 200*time.Millisecond {
		t.Fatal("openLoop returned before its in-flight ops drained")
	}
	for _, o := range ops {
		if o.failed() || o.done.IsZero() {
			t.Fatalf("op %d: done=%v err=%v", o.id, o.done, o.err)
		}
	}
}

// A run that ends while upstream calls are slow must not turn the end of
// the run into upstream errors or breaker opens: the gateway's calls are
// never cancelled by the generator.
func TestRunEndIsNotAnUpstreamFailure(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		w.Header().Set("ETag", `"x"`)
		w.Write([]byte(`[]`))
	}))
	defer slow.Close()
	g, err := gateway.New(gateway.Config{Nodes: []string{slow.URL}, FailThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	reg := obs.NewRegistry()
	g.EnableMetrics(reg)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	c := newHTTPClient(2)
	defer c.close()
	ops := make([]*op, 6)
	offsets := make([]time.Duration, len(ops))
	for i := range ops {
		ops[i] = &op{id: uint64(i + 1), req: request{kind: "prices", method: http.MethodGet, path: "/v1/prices?market=m"}}
		offsets[i] = time.Duration(i) * 10 * time.Millisecond
	}
	openLoop(ops, offsets, 2, func(o *op) error {
		r, err := c.do(front.URL, o.req, nil)
		if err == nil && r.status != http.StatusOK {
			err = errors.New(http.StatusText(r.status))
		}
		return err
	})
	for _, o := range ops {
		if o.failed() {
			t.Fatalf("op %d failed at run end: %v", o.id, o.err)
		}
	}
	if n := regSum(reg, "spotlight_gateway_breaker_opens_total"); n != 0 {
		t.Fatalf("%v breaker opens", n)
	}
	if n := upstreamErrors(reg); n != 0 {
		t.Fatalf("%v upstream errors", n)
	}
}

func TestSummaryReportsCountsAndReliablePercentile(t *testing.T) {
	var d dist
	for i := 1; i <= 1000; i++ {
		d.add(time.Duration(i) * time.Millisecond)
	}
	s := summarize(d, time.Millisecond)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.Max != 1000 {
		t.Fatalf("summary %+v", s)
	}
	if s.Reliable != 99 || s.RelValue != 990 {
		t.Fatalf("reliable percentile p%v=%v, want p99=990", s.Reliable, s.RelValue)
	}
	if q := reliableQuantile(100, 10); q != 0.9 {
		t.Fatalf("100 samples: p%v, want p90", 100*q)
	}
	if q := reliableQuantile(10, 10); q != 0 {
		t.Fatalf("10 samples have no percentile with 10 beyond it, got %v", q)
	}
}

func TestClosedLoopCountsOnlyInWindowCompletions(t *testing.T) {
	var next atomic.Uint64
	completed, failed := closedLoop(2, 100*time.Millisecond, func(int) *op {
		return &op{id: next.Add(1)}
	}, func(*op) error {
		time.Sleep(30 * time.Millisecond)
		return nil
	})
	if failed != 0 || completed < 4 || completed > 8 {
		t.Fatalf("completed %d, failed %d in 100ms of 30ms ops on 2 workers", completed, failed)
	}
}
