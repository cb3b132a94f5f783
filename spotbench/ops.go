package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"spotlight/internal/market"
	"spotlight/pkg/api"
)

// request is one read operation as sent on the wire.
type request struct {
	kind   string // op kind, for per-kind reporting
	method string
	path   string // path and query string
	body   []byte // POST body, nil for GET
}

// The op mix: the interactive kinds spotload has always issued, weighted
// as there (unavailability 4, prices 3, stable 2, summary 2, batch 3),
// plus a light share of advise.
var opWeights = []struct {
	kind   string
	weight int
}{
	{"unavailability", 4}, {"prices", 3}, {"stable", 2}, {"summary", 2}, {"batch", 3}, {"advise", 1},
}

// keySpace draws the keys of one workload. Hot keys are a few dozen
// (16 markets, us-east-1 scopes, the fixed Last(24h) window) and stay
// well inside every cache; cold keys draw the market uniformly over
// every stored market, the scope over the catalog, and an absolute
// sub-day window, so nearly every request misses.
type keySpace struct {
	hot      bool
	markets  []string
	regions  []string
	products []string
	from, to time.Time // the dataset's covered day
	total    int
}

func newKeySpace(hot bool, priced []string, cat *market.Catalog, from, to time.Time, seed int64) *keySpace {
	k := &keySpace{hot: hot, from: from, to: to}
	for _, w := range opWeights {
		k.total += w.weight
	}
	var ms []string
	for _, m := range priced {
		if !hot || strings.HasPrefix(m, "us-east-1") {
			ms = append(ms, m)
		}
	}
	sort.Strings(ms)
	if hot {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		if len(ms) > 16 {
			ms = ms[:16]
		}
		k.regions = []string{"us-east-1"}
		k.products = []string{""}
	} else {
		for _, r := range cat.Regions() {
			k.regions = append(k.regions, string(r))
		}
		k.products = []string{""}
		for _, p := range market.Products {
			k.products = append(k.products, string(p))
		}
	}
	k.markets = ms
	return k
}

func (k *keySpace) window(rng *rand.Rand) api.Window {
	if k.hot {
		return api.Last(24 * time.Hour)
	}
	span := k.to.Sub(k.from)
	lo := time.Duration(rng.Int63n(int64(span - 30*time.Minute))).Truncate(time.Minute)
	hi := lo + 30*time.Minute + time.Duration(rng.Int63n(int64(span-lo-30*time.Minute)+1)).Truncate(time.Minute)
	return api.Between(k.from.Add(lo), k.from.Add(hi))
}

func windowParams(v url.Values, w api.Window) {
	if w.Rel != "" {
		v.Set("window", w.Rel)
		return
	}
	v.Set("from", w.From.UTC().Format(time.RFC3339))
	v.Set("to", w.To.UTC().Format(time.RFC3339))
}

// next draws one operation.
func (k *keySpace) next(rng *rand.Rand) request {
	pick := rng.Intn(k.total)
	kind := ""
	for _, w := range opWeights {
		if pick < w.weight {
			kind = w.kind
			break
		}
		pick -= w.weight
	}
	m := k.markets[rng.Intn(len(k.markets))]
	region := k.regions[rng.Intn(len(k.regions))]
	product := k.products[rng.Intn(len(k.products))]
	w := k.window(rng)
	contract := "spot"
	if !k.hot && rng.Intn(2) == 0 {
		contract = "od"
	}
	v := url.Values{}
	switch kind {
	case "unavailability":
		v.Set("market", m)
		v.Set("kind", contract)
		windowParams(v, w)
		return request{kind: kind, method: http.MethodGet, path: "/v1/unavailability?" + v.Encode()}
	case "prices":
		v.Set("market", m)
		windowParams(v, w)
		return request{kind: kind, method: http.MethodGet, path: "/v1/prices?" + v.Encode()}
	case "stable":
		v.Set("region", region)
		if product != "" {
			v.Set("product", product)
		}
		v.Set("n", "10")
		windowParams(v, w)
		return request{kind: kind, method: http.MethodGet, path: "/v1/stable?" + v.Encode()}
	case "summary":
		return request{kind: kind, method: http.MethodGet, path: "/v1/summary"}
	case "batch":
		body, _ := json.Marshal(api.BatchRequest{Queries: []api.Query{
			{Kind: api.KindStable, Region: region, Product: product, N: 5, Window: w},
			{Kind: api.KindSummary},
			{Kind: api.KindUnavailability, Market: m, Contract: contract, Window: w},
		}})
		return request{kind: kind, method: http.MethodPost, path: "/v2/query", body: body}
	default:
		areq := api.AdviseRequest{Window: w}
		areq.Regions = []string{region}
		if product != "" {
			areq.Products = []string{product}
		}
		areq.N = 5
		body, _ := json.Marshal(areq)
		return request{kind: "advise", method: http.MethodPost, path: "/v2/advise", body: body}
	}
}

// reply is one answered request.
type reply struct {
	status int
	etag   string
	body   []byte
}

// httpClient sends raw requests over a bounded connection pool.
type httpClient struct {
	hc *http.Client
}

func newHTTPClient(conns int) *httpClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        4 * conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &httpClient{hc: &http.Client{Transport: tr}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends req to base. hdr, when set, adds request headers (the traced
// run's op and span IDs). Requests carry no deadline: a run ends by
// stopping its schedule and draining, never by cancelling.
func (c *httpClient) do(base string, req request, hdr map[string]string) (reply, error) {
	var rd io.Reader
	if req.body != nil {
		rd = bytes.NewReader(req.body)
	}
	hreq, err := http.NewRequest(req.method, base+req.path, rd)
	if err != nil {
		return reply{}, err
	}
	if req.body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, etag: resp.Header.Get(api.HeaderETag), body: body}, nil
}

// decodeStrict unmarshals body into out, rejecting unknown fields, so a
// body that is not the expected payload fails instead of decoding empty.
func decodeStrict(body []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// validate checks that one answer succeeded and decodes as its kind's
// payload; a batch additionally needs every query to have answered.
func validate(kind string, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", kind, r.status, r.body)
	}
	var err error
	switch kind {
	case "unavailability":
		var out api.Unavailability
		err = decodeStrict(r.body, &out)
	case "prices":
		var out []api.PricePoint
		err = decodeStrict(r.body, &out)
	case "stable":
		var out []api.StableMarket
		err = decodeStrict(r.body, &out)
	case "summary":
		var out []api.RegionSummary
		err = decodeStrict(r.body, &out)
		if err == nil && len(out) == 0 {
			err = errors.New("empty summary")
		}
	case "batch":
		var out api.BatchResponse
		if err = decodeStrict(r.body, &out); err == nil {
			if len(out.Results) != 3 {
				err = fmt.Errorf("%d results, want 3", len(out.Results))
			}
			for _, res := range out.Results {
				if res.Error != nil && err == nil {
					err = res.Error
				}
			}
		}
	case "advise":
		var out api.AdviseResponse
		err = decodeStrict(r.body, &out)
	default:
		err = fmt.Errorf("unknown op kind %q", kind)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	if r.etag == "" {
		return fmt.Errorf("%s: answer carries no ETag", kind)
	}
	return nil
}

// etagBook enforces the replication contract on every answer of a run:
// one ETag names one body. Two answers of the same endpoint that share a
// tag must be byte-equal.
type etagBook struct {
	mu   sync.Mutex
	seen map[string][32]byte
}

func newETagBook() *etagBook { return &etagBook{seen: make(map[string][32]byte)} }

// check records one answer; fresh reports the first answer under its tag. Every later answer under
// the tag is byte-equal to it, so decoding the fresh one validates them
// all, and the load process decodes each distinct body once.
func (b *etagBook) check(req request, r reply) (fresh bool, err error) {
	path := req.path
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	key := req.method + " " + path + " " + r.etag
	sum := sha256.Sum256(r.body)
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, ok := b.seen[key]
	if ok && prev != sum {
		return false, fmt.Errorf("ETag %s on %s names two different bodies", r.etag, path)
	}
	b.seen[key] = sum
	return !ok, nil
}

func (b *etagBook) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen)
}

// sampled is one gateway answer kept for the direct-to-leader comparison.
type sampled struct {
	req  request
	body []byte
}

// sameAnswer reports whether two bodies decode to equal JSON values.
func sameAnswer(a, b []byte) (bool, error) {
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		return false, err
	}
	return reflect.DeepEqual(va, vb), nil
}

// compareWithLeader re-sends every sampled request straight to the
// leader and requires the decoded answers to equal the gateway's. Only
// meaningful on a frozen fleet, where the answer cannot change between
// the two sends.
func compareWithLeader(c *httpClient, leader string, samples []sampled) error {
	for _, s := range samples {
		r, err := c.do(leader, s.req, nil)
		if err != nil {
			return fmt.Errorf("sample %s %s: %w", s.req.method, s.req.path, err)
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("sample %s %s: leader HTTP %d", s.req.method, s.req.path, r.status)
		}
		same, err := sameAnswer(s.body, r.body)
		if err != nil {
			return fmt.Errorf("sample %s %s: %w", s.req.method, s.req.path, err)
		}
		if !same {
			return fmt.Errorf("sample %s %s: gateway answer differs from the leader's", s.req.method, s.req.path)
		}
	}
	return nil
}

// sampleEvery picks which ops keep their answer for the leader
// comparison: a deterministic, seed-driven subset.
func sampleEvery(seed int64, n int) func(i int) bool {
	off := int(uint64(seed) % uint64(n))
	return func(i int) bool { return i%n == off }
}
