package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers carrying the benchmark's op and parent-span IDs across hops.
// Only the traced run sets them, and only benchmark code reads them.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

// span is one timed interval recorded by benchmark-owned code around a
// call into the system: its name, start and end (nanoseconds since the
// run began), its parent span, and the client op it belongs to (0 for
// spans outside any client op, such as monitor ticks).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// stageLine is one captured slow-query log line: the query API's own
// per-stage timings for one request.
type stageLine struct {
	Node   string        `json:"node"`
	Kind   string        `json:"kind"`
	Status int           `json:"status"`
	At     int64         `json:"at_ns"`
	Total  time.Duration `json:"total_ns"`
	Parse  time.Duration `json:"parse_ns"`
	Probe  time.Duration `json:"cache_probe_ns"`
	Exec   time.Duration `json:"exec_ns"`
	Encode time.Duration `json:"encode_ns"`
}

// tracer keeps every span and stage line of a traced run in memory and
// writes them out at the end.
type tracer struct {
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
	stages []stageLine
	table  []string // per-layer report sections
}

// newTracer starts span IDs after base, so the two processes of a run
// mint disjoint IDs.
func newTracer(base uint64) *tracer {
	t := &tracer{}
	t.nextID.Store(base)
	return t
}

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

// ns is a span timestamp: wall-clock nanoseconds, comparable across the
// run's two processes on one machine.
func (t *tracer) ns(at time.Time) int64 { return at.UnixNano() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span for [start, end).
func (t *tracer) record(name, node string, op, parent uint64, start, end time.Time) {
	t.add(span{ID: t.id(), Parent: parent, Op: op, Name: name, Node: node, Start: t.ns(start), End: t.ns(end)})
}

// snapshot returns copies of what has been recorded so far.
func (t *tracer) snapshot() ([]span, []stageLine) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]stageLine(nil), t.stages...)
}

type spanKey struct{}

// spanRef is the op and parent span carried in a request context.
type spanRef struct{ op, span uint64 }

func headerID(r *http.Request, h string) uint64 {
	v, _ := strconv.ParseUint(r.Header.Get(h), 10, 64)
	return v
}

// wrapGateway times the gateway's handler and hands the op and the
// handler span to the upstream transport through the request context.
func (t *tracer) wrapGateway(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/watch" {
			h.ServeHTTP(w, r)
			return
		}
		op, parent := headerID(r, hdrOp), headerID(r, hdrSpan)
		id := t.id()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{op, id})))
		t.add(span{ID: id, Parent: parent, Op: op, Name: "gateway.handler", Start: t.ns(start), End: t.ns(time.Now())})
	})
}

// wrapNode times a store node's handler.
func (t *tracer) wrapNode(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/watch" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record("node.handler", name, headerID(r, hdrOp), headerID(r, hdrSpan), start, time.Now())
	})
}

// tracedTransport times the gateway's upstream calls from request write
// to the end of the response body, and stamps the op and span IDs on the
// upstream request so the node's span can name its parent.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (t *tracer) wrapTransport(base http.RoundTripper) http.RoundTripper {
	return &tracedTransport{base: base, t: t}
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanKey{}).(spanRef)
	id := tt.t.id()
	out := req.Clone(req.Context())
	out.Header.Set(hdrOp, strconv.FormatUint(ref.op, 10))
	out.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		tt.t.add(span{ID: id, Parent: ref.span, Op: ref.op, Name: "gateway.upstream", Start: tt.t.ns(start), End: tt.t.ns(time.Now())})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		tt.t.add(span{ID: id, Parent: ref.span, Op: ref.op, Name: "gateway.upstream", Start: tt.t.ns(start), End: tt.t.ns(time.Now())})
	}}
	return resp, nil
}

// spanBody ends its span at the body's EOF or Close, whichever is first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// slowLogger returns a logger capturing the query API's slow-query lines
// for node; with a near-zero threshold every request emits one.
func (t *tracer) slowLogger(node string) *slog.Logger {
	return slog.New(&stageHandler{t: t, node: node})
}

type stageHandler struct {
	t    *tracer
	node string
}

func (h *stageHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *stageHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *stageHandler) WithGroup(string) slog.Handler            { return h }

func (h *stageHandler) Handle(_ context.Context, r slog.Record) error {
	l := stageLine{Node: h.node, At: h.t.ns(r.Time)}
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "kind":
			l.Kind = a.Value.String()
		case "status":
			l.Status = int(a.Value.Int64())
		case "total":
			l.Total = a.Value.Duration()
		case "parse":
			l.Parse = a.Value.Duration()
		case "cache_probe":
			l.Probe = a.Value.Duration()
		case "exec":
			l.Exec = a.Value.Duration()
		case "encode":
			l.Encode = a.Value.Duration()
		}
		return true
	})
	h.t.mu.Lock()
	h.t.stages = append(h.t.stages, l)
	h.t.mu.Unlock()
	return nil
}

// dumpLine is one line of a span dump: a span, or a stage line.
type dumpLine struct {
	span
	Stage *stageLine `json:"stage,omitempty"`
}

// loadDump reads a span dump back.
func loadDump(path string) ([]span, []stageLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var spans []span
	var stages []stageLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var l dumpLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, nil, err
		}
		if l.Stage != nil {
			stages = append(stages, *l.Stage)
		} else {
			spans = append(spans, l.span)
		}
	}
	return spans, stages, sc.Err()
}

// dump writes every span and stage line as JSON lines to path.
func (t *tracer) dump(path string) error {
	spans, stages := t.snapshot()
	return writeDump(path, spans, stages)
}

func writeDump(path string, spans []span, stages []stageLine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, l := range stages {
		if err := enc.Encode(struct {
			Stage stageLine `json:"stage"`
		}{l}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
