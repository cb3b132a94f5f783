package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

func TestETagBookCatchesTamperedBody(t *testing.T) {
	b := newETagBook()
	req := request{kind: "prices", method: http.MethodGet, path: "/v1/prices?market=a"}
	if fresh, err := b.check(req, reply{etag: `"t1"`, body: []byte(`[1]`)}); err != nil || !fresh {
		t.Fatalf("first answer: fresh=%v err=%v", fresh, err)
	}
	// The same tag with the same bytes is fine, from any key of the
	// endpoint, and needs no second decode.
	if fresh, err := b.check(request{method: http.MethodGet, path: "/v1/prices?market=b"}, reply{etag: `"t1"`, body: []byte(`[1]`)}); err != nil || fresh {
		t.Fatalf("repeat answer: fresh=%v err=%v", fresh, err)
	}
	if _, err := b.check(req, reply{etag: `"t1"`, body: []byte(`[2]`)}); err == nil {
		t.Fatal("a tampered body under a known ETag was not caught")
	}
	// Another endpoint may reuse the tag string for its own body.
	if _, err := b.check(request{method: http.MethodGet, path: "/v1/stable"}, reply{etag: `"t1"`, body: []byte(`[]`)}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsWrongAnswers(t *testing.T) {
	good := reply{status: 200, etag: `"e"`, body: []byte(`{"market":"m","kind":"spot","unavailability":0.25,"availability":0.75}`)}
	if err := validate("unavailability", good); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, r := range map[string]reply{
		"status":         {status: 502, etag: `"e"`, body: []byte(`{}`)},
		"unknown field":  {status: 200, etag: `"e"`, body: []byte(`{"market":"m","bogus":1}`)},
		"wrong type":     {status: 200, etag: `"e"`, body: []byte(`[1,2]`)},
		"truncated":      {status: 200, etag: `"e"`, body: []byte(`{"market":"m"`)},
		"missing ETag":   {status: 200, body: good.body},
		"trailing bytes": {status: 200, etag: `"e"`, body: []byte(`{"market":"m"} {}`)},
	} {
		if err := validate("unavailability", r); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
	batch := reply{status: 200, etag: `"b"`, body: []byte(`{"results":[{"kind":"summary"},{"kind":"summary"},{"kind":"stable","error":{"code":"internal","message":"x"}}]}`)}
	if err := validate("batch", batch); err == nil {
		t.Error("a batch with a failed query was not caught")
	}
}

func TestCompareWithLeaderCatchesTamperedAnswer(t *testing.T) {
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"a": [1, 2], "b": "x"}`))
	}))
	defer leader.Close()
	c := newHTTPClient(1)
	defer c.close()
	req := request{method: http.MethodGet, path: "/v1/summary"}
	// Different bytes, same decoded value: equal.
	if err := compareWithLeader(c, leader.URL, []sampled{{req: req, body: []byte(`{"b":"x","a":[1,2]}`)}}); err != nil {
		t.Fatal(err)
	}
	if err := compareWithLeader(c, leader.URL, []sampled{{req: req, body: []byte(`{"b":"x","a":[1,3]}`)}}); err == nil {
		t.Fatal("a tampered gateway answer was not caught")
	}
}

func TestWaitGenCatchesWrongGeneration(t *testing.T) {
	db := store.New()
	id := market.SpotID{Zone: "us-east-1a", Type: "c3.large", Product: market.ProductLinux}
	at := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	db.RecordPrices(id, []store.PricePoint{{At: at, Price: 1}, {At: at.Add(time.Minute), Price: 2}})
	gen := db.GlobalGeneration()
	if err := waitGen(db, gen, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := waitGen(db, gen-1, time.Second); err == nil {
		t.Fatal("a store past the expected generation was not caught")
	}
	if err := waitGen(db, gen+1, 20*time.Millisecond); err == nil {
		t.Fatal("a store short of the expected generation was not caught")
	}
}

func TestGenTimelineFirstReach(t *testing.T) {
	var tl genTimeline
	t0 := time.Now()
	tl.observe(10, t0)
	tl.observe(5, t0.Add(time.Second)) // out of order: not a new high
	tl.observe(20, t0.Add(2*time.Second))
	if at, ok := tl.reached(15); !ok || !at.Equal(t0.Add(2*time.Second)) {
		t.Fatalf("reached(15) = %v %v", at, ok)
	}
	if at, ok := tl.reached(10); !ok || !at.Equal(t0) {
		t.Fatalf("reached(10) = %v %v", at, ok)
	}
	if _, ok := tl.reached(21); ok {
		t.Fatal("a generation never seen was reported reached")
	}
	if tl.last() != 20 {
		t.Fatalf("last %d", tl.last())
	}
}

func TestCoveredUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}, {Start: 60, End: 60}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered %d, want 40 (10-40 and 90-100)", got)
	}
}

func TestKeySpacesAreSeededAndShaped(t *testing.T) {
	at := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	cat := market.New()
	var db []string
	for _, id := range cat.SpotMarkets() {
		db = append(db, id.String())
	}
	hot := newKeySpace(true, db, cat, at, at.Add(24*time.Hour), 3)
	if len(hot.markets) != 16 {
		t.Fatalf("hot key space has %d markets", len(hot.markets))
	}
	for _, m := range hot.markets {
		if !strings.HasPrefix(m, "us-east-1") {
			t.Fatalf("hot market %s outside us-east-1", m)
		}
	}
	cold := newKeySpace(false, db, cat, at, at.Add(24*time.Hour), 3)
	if len(cold.markets) != len(cat.SpotMarkets()) {
		t.Fatalf("cold key space has %d markets, want every stored one", len(cold.markets))
	}
	a := newKeySpace(true, db, cat, at, at.Add(24*time.Hour), 3)
	if strings.Join(a.markets, ",") != strings.Join(hot.markets, ",") {
		t.Fatal("the same seed drew different hot markets")
	}
	coldKeys := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		r := cold.next(rng)
		coldKeys[r.method+r.path+string(r.body)] = true
		if strings.Contains(r.path, "window=") || strings.Contains(string(r.body), `"window"`) {
			t.Fatalf("cold op uses a relative window: %s %s", r.path, r.body)
		}
	}
	if len(coldKeys) < 400 {
		t.Fatalf("only %d distinct keys in 500 cold ops", len(coldKeys))
	}
}

// BENCHMARK.json must list exactly the metrics the result line carries.
func TestBenchmarkJSONMatchesResultLine(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this checkout")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	sorted := func(xs []string) string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	if got, want := names(spec.EndToEnd), sorted(resultE2E); got != want {
		t.Errorf("end_to_end %s, result line %s", got, want)
	}
	if got, want := names(spec.PerLayer), sorted(resultLayers); got != want {
		t.Errorf("per_layer %s, result line %s", got, want)
	}
	for _, w := range spec.Workloads {
		switch w.Name {
		case wlReadHot, wlReadCold, wlLive:
		default:
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// A read the gateway refuses is a failed op, and a failed op fails the run
// even though no answer arrived to be checked.
func TestFailedReadsFailTheRun(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream down", http.StatusBadGateway)
	}))
	defer down.Close()
	b := &bench{client: newHTTPClient(1), book: newETagBook()}
	defer b.client.close()
	ops := []*op{
		{id: 1, req: request{kind: "prices", method: http.MethodGet, path: "/v1/prices?market=m"}},
		{id: 2, req: request{kind: "summary", method: http.MethodGet, path: "/v1/summary"}},
	}
	openLoop(ops, make([]time.Duration, len(ops)), 1, b.gatewayExec(down.URL, nil, nil, nil))
	checkOps(b, ops)
	if len(b.violations) != 1 || !strings.Contains(b.violations[0], "2 of 2 ops failed") {
		t.Fatalf("violations %q, want one naming 2 failed ops", b.violations)
	}

	b.violations = nil
	checkOps(b, []*op{{id: 3}})
	if len(b.violations) != 0 {
		t.Fatalf("a run without failures was failed: %q", b.violations)
	}
}
