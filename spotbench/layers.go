package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/obs"
	"spotlight/internal/replica"
)

// regSum sums every child of one family in reg's snapshot (0 when absent).
func regSum(reg *obs.Registry, name string) float64 {
	v := 0.0
	for _, f := range reg.Snapshot() {
		if f.Name == name {
			for _, c := range f.Values {
				v += c.Value
			}
		}
	}
	return v
}

// regHist returns a histogram family's server-side p50/p99 estimates (in
// seconds) from its first child.
func regHist(reg *obs.Registry, name string) (p50, p99 float64) {
	for _, f := range reg.Snapshot() {
		if f.Name == name && len(f.Values) > 0 {
			return f.Values[0].P50, f.Values[0].P99
		}
	}
	return 0, 0
}

// counterSet reads a fixed list of counters across registries, so a phase
// can report deltas.
type counterSet map[string]float64

func readCounters(names []string, regs ...*obs.Registry) counterSet {
	out := counterSet{}
	for _, n := range names {
		for _, r := range regs {
			out[n] += regSum(r, n)
		}
	}
	return out
}

func (a counterSet) delta(b counterSet, name string) float64 { return b[name] - a[name] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var gatewayCounters = []string{
	"spotlight_gateway_retries_total", "spotlight_gateway_hedges_total",
	"spotlight_gateway_breaker_opens_total", "spotlight_gateway_upstream_requests_total",
}

var nodeCounters = []string{
	"spotlight_query_cache_hits_total", "spotlight_query_cache_misses_total",
	"spotlight_advisor_memo_hits_total", "spotlight_advisor_memo_misses_total",
}

// upstreamErrors counts upstream calls whose outcome was "error".
func upstreamErrors(reg *obs.Registry) float64 {
	v := 0.0
	for _, f := range reg.Snapshot() {
		if f.Name == "spotlight_gateway_upstream_requests_total" {
			for _, c := range f.Values {
				if c.Labels["outcome"] == "error" {
					v += c.Value
				}
			}
		}
	}
	return v
}

// layerBase is the fleet process's view of the measured phase: the
// counters, runtime and host state at its start, and the follower-lag
// sampler.
type layerBase struct {
	gwReg, leaderReg, folReg *obs.Registry
	gw0, nodes0              counterSet
	rt0                      rtSample
	cpu0, steal0             uint64
	proc0, cpu               time.Duration
	lagMax                   atomic.Uint64
	stop                     chan struct{}
	wg                       sync.WaitGroup
}

func newLayerBase(leader, fol *node, fr *front, rep *replica.Replicator) *layerBase {
	l := &layerBase{gwReg: fr.reg, leaderReg: leader.reg, folReg: fol.reg, stop: make(chan struct{})}
	l.gw0 = readCounters(gatewayCounters, fr.reg)
	l.nodes0 = readCounters(nodeCounters, leader.reg, fol.reg)
	l.rt0 = readRuntime()
	l.cpu0, l.steal0, _ = cpuTicks()
	l.proc0 = processCPU()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if lag := rep.Status().Lag; lag > l.lagMax.Load() {
				l.lagMax.Store(lag)
			}
			select {
			case <-l.stop:
				return
			case <-t.C:
			}
		}
	}()
	return l
}

// mark ends the window of fleet CPU time that read_cpu_us_per_op divides
// (the read workloads' fixed-rate phase); without a mark it ends at
// finish.
func (l *layerBase) mark() { l.cpu = processCPU() - l.proc0 }

// finish sets the fleet-side per-layer metrics of the measured phase:
// gateway, query and replica series from the nodes' registries, the
// monitor spans step/tick, and the Go runtime.
func (l *layerBase) finish(b *bench, step, tick dist, rep *replica.Replicator) {
	close(l.stop)
	l.wg.Wait()
	rt := runtimeDelta(l.rt0, readRuntime())
	if l.cpu == 0 {
		l.mark()
	}
	b.set(b.extra, "fleet_cpu_s", l.cpu.Seconds(), "s")
	if cpu1, steal1, ok := cpuTicks(); ok {
		b.set(b.extra, "host_cpu_steal_pct", stealShare(l.cpu0, l.steal0, cpu1, steal1), "%")
	}
	gw1 := readCounters(gatewayCounters, l.gwReg)
	nodes1 := readCounters(nodeCounters, l.leaderReg, l.folReg)

	set := func(name string, v float64, unit string) { b.set(b.layers, name, v, unit) }
	set("gateway.retries", l.gw0.delta(gw1, "spotlight_gateway_retries_total"), "count")
	set("gateway.hedges", l.gw0.delta(gw1, "spotlight_gateway_hedges_total"), "count")
	set("gateway.breaker_opens", l.gw0.delta(gw1, "spotlight_gateway_breaker_opens_total"), "count")
	set("gateway.upstream_errors", upstreamErrors(l.gwReg), "count")
	hits := l.nodes0.delta(nodes1, "spotlight_query_cache_hits_total")
	misses := l.nodes0.delta(nodes1, "spotlight_query_cache_misses_total")
	set("query.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	mh := l.nodes0.delta(nodes1, "spotlight_advisor_memo_hits_total")
	mm := l.nodes0.delta(nodes1, "spotlight_advisor_memo_misses_total")
	set("advisor.memo_hit_ratio", ratio(mh, mh+mm), "ratio")
	st, tk := summarize(step, time.Millisecond), summarize(tick, time.Millisecond)
	set("monitor.tick_p50_ms", tk.P50, "ms")
	set("monitor.tick_p99_ms", tk.P99, "ms")
	set("sim.step_p50_ms", st.P50, "ms")
	rs := rep.Status()
	set("replica.applied", regSum(l.folReg, "spotlight_replica_applied_total"), "count")
	set("replica.skipped", regSum(l.folReg, "spotlight_replica_skipped_total"), "count")
	set("replica.resyncs", float64(rs.Resyncs), "count")
	set("replica.reconnects", float64(rs.Reconnects), "count")
	set("replica.lag_records_max", float64(l.lagMax.Load()), "count")
	set("runtime.gc_pause_p99_ms", rt.GCPauseP99Ms, "ms")
	set("runtime.gc_cycles", float64(rt.GCCycles), "count")
	set("runtime.sched_latency_p99_ms", rt.SchedLatP99Ms, "ms")
}

// genLayers sets the load generator's own per-layer metrics and, on a
// traced run, records each op's client and queue spans.
func genLayers(b *bench, ops []*op, ps phaseStats) {
	b.set(b.layers, "gen.send_late_p99_ms", summarize(ps.sendLate, time.Millisecond).P99, "ms")
	b.set(b.layers, "gen.conn_wait_p99_ms", summarize(ps.connWait, time.Millisecond).P99, "ms")
	if b.tr == nil {
		return
	}
	for _, o := range ops {
		if o.span != 0 {
			b.tr.add(span{ID: o.span, Op: o.id, Name: "client.op", Node: o.req.kind, Start: b.tr.ns(o.intended), End: b.tr.ns(o.done)})
			b.tr.record("gen.queue", "", o.id, o.span, o.intended, o.started)
		}
	}
}

// opTimeline is one client op joined with the spans recorded for it.
type opTimeline struct {
	o        *op
	handler  *span
	upstream []span
	nodes    []span
	stages   []stageLine
}

// spanLayers decomposes the fixed-rate phase's ops into named layers from
// the fleet's spans and stage lines, sets the span-derived per-layer
// metrics, and adds the per-layer table to the report.
func spanLayers(b *bench, ops []*op, ps phaseStats, spans []span, stages []stageLine) {
	byOp := map[uint64]*opTimeline{}
	var phaseEnd int64
	for _, o := range ops {
		if !o.failed() {
			byOp[o.id] = &opTimeline{o: o}
			phaseEnd = max(phaseEnd, o.done.UnixNano())
		}
	}
	var phaseStart int64
	if len(ops) > 0 {
		phaseStart = ops[0].intended.UnixNano()
	}
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Name == "gateway.upstream" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	nodeSpans := map[string][]span{}
	var handlers, ups, selfs dist
	upCount, hCount := 0, 0
	for i := range spans {
		s := &spans[i]
		t := byOp[s.Op]
		switch {
		case s.Name == "node.handler":
			nodeSpans[s.Node] = append(nodeSpans[s.Node], *s)
			if t != nil && s.Op != 0 {
				t.nodes = append(t.nodes, *s)
			}
		case t == nil || s.Op == 0:
		case s.Name == "gateway.handler":
			hCount++
			handlers.add(s.dur())
			selfs.add(s.dur() - covered(*s, children[s.ID]))
			t.handler = s
			t.upstream = children[s.ID]
		case s.Name == "gateway.upstream":
			upCount++
			ups.add(s.dur())
		}
	}
	// Join each stage line to the node span that was open when it was
	// logged (the query API logs it just before its handler returns).
	for n := range nodeSpans {
		sort.Slice(nodeSpans[n], func(i, j int) bool { return nodeSpans[n][i].End < nodeSpans[n][j].End })
	}
	var parse, probe, exec, encode dist
	perKind := map[string][]stageLine{}
	for _, st := range stages {
		if st.At < phaseStart || st.At > phaseEnd {
			continue
		}
		parse.add(st.Parse)
		probe.add(st.Probe)
		exec.add(st.Exec)
		encode.add(st.Encode)
		perKind[st.Kind] = append(perKind[st.Kind], st)
		ns := nodeSpans[st.Node]
		i := sort.Search(len(ns), func(i int) bool { return ns[i].End >= st.At })
		if i < len(ns) && ns[i].Start <= st.At && ns[i].Op != 0 {
			if t := byOp[ns[i].Op]; t != nil {
				t.stages = append(t.stages, st)
			}
		}
	}

	// Per-op self time of each layer, for the ops whose every hop joined.
	rows := []string{"gen.queue", "client<->gateway", "gateway.self", "gateway<->node", "node.http", "query.parse", "query.cache_probe", "query.exec", "query.encode"}
	self := map[string]*dist{}
	for _, r := range rows {
		self[r] = &dist{}
	}
	var shares []float64
	var overhead dist
	joined := 0
	for _, t := range byOp {
		if t.handler == nil || len(t.nodes) != len(t.upstream) || len(t.stages) != len(t.nodes) {
			continue
		}
		joined++
		lat := t.o.latency()
		queue := t.o.started.Sub(t.o.intended)
		h := t.handler.dur()
		var up, node, stage, sp, sprobe, sexec, senc time.Duration
		for _, u := range t.upstream {
			up += u.dur()
		}
		for _, n := range t.nodes {
			node += n.dur()
		}
		for _, s := range t.stages {
			stage += s.Total
			sp += s.Parse
			sprobe += s.Probe
			sexec += s.Exec
			senc += s.Encode
		}
		self["gen.queue"].add(queue)
		self["client<->gateway"].add(lat - queue - h)
		self["gateway.self"].add(h - covered(*t.handler, t.upstream))
		self["gateway<->node"].add(up - node)
		self["node.http"].add(node - stage)
		self["query.parse"].add(sp)
		self["query.cache_probe"].add(sprobe)
		self["query.exec"].add(sexec)
		self["query.encode"].add(senc)
		overhead.add(up - stage)
		shares = append(shares, float64(queue+h)/float64(lat))
	}

	set := func(name string, v float64, unit string) { b.set(b.layers, name, v, unit) }
	us := func(d dist, q float64) float64 { return float64(d.sorted().quantile(q)) / 1e3 }
	set("gateway.handler_p50_us", us(handlers, 0.5), "us")
	set("gateway.self_p50_us", us(selfs, 0.5), "us")
	set("gateway.upstream_p50_us", us(ups, 0.5), "us")
	set("gateway.upstream_p99_us", us(ups, 0.99), "us")
	set("gateway.upstream_calls_per_req", ratio(float64(upCount), float64(hCount)), "ratio")
	for name, d := range map[string]dist{"parse": parse, "cache_probe": probe, "exec": exec, "encode": encode} {
		set("query."+name+"_p50_us", us(d, 0.5), "us")
		set("query."+name+"_p99_us", us(d, 0.99), "us")
	}
	set("query.http_overhead_us", us(overhead, 0.5), "us")
	if b.workload != wlLive {
		set("trace.covered_share", median(shares), "ratio")
	}

	// The table: each layer's self time (p50, p99, mean) and its share of
	// the mean read latency. The means add up to the mean latency.
	var tb strings.Builder
	fmt.Fprintf(&tb, "per-layer self time, %s reads (seed %d): %d of %d ops joined to all their spans; read p50 %.1f us\n",
		b.workload, b.seed, joined, len(ops), float64(ps.latency.sorted().quantile(0.5))/1e3)
	fmt.Fprintf(&tb, "%-20s %12s %12s %12s %10s\n", "layer", "p50_us", "p99_us", "mean_us", "mean_share")
	var sumMean float64
	means := map[string]float64{}
	for _, r := range rows {
		var m float64
		for _, v := range *self[r] {
			m += float64(v) / 1e3
		}
		if n := len(*self[r]); n > 0 {
			m /= float64(n)
		}
		means[r] = m
		sumMean += m
	}
	for _, r := range rows {
		fmt.Fprintf(&tb, "%-20s %12.1f %12.1f %12.1f %9.1f%%\n", r, us(*self[r], 0.5), us(*self[r], 0.99), means[r], 100*ratio(means[r], sumMean))
	}
	fmt.Fprintf(&tb, "%-20s %12s %12s %12.1f %9.1f%%\n", "sum (= mean latency)", "", "", sumMean, 100.0)
	fmt.Fprintf(&tb, "covered share of each op's latency by named spans (queue + gateway handler): median %.3f\n", median(shares))
	kinds := make([]string, 0, len(perKind))
	for k := range perKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(&tb, "query stages per op kind, p50 us:\n  %-16s %8s %8s %8s %8s %8s %7s\n", "kind", "parse", "probe", "exec", "encode", "total", "n")
	for _, k := range kinds {
		var p, pr, e, en, tot dist
		for _, st := range perKind[k] {
			p.add(st.Parse)
			pr.add(st.Probe)
			e.add(st.Exec)
			en.add(st.Encode)
			tot.add(st.Total)
		}
		fmt.Fprintf(&tb, "  %-16s %8.1f %8.1f %8.1f %8.1f %8.1f %7d\n", k, us(p, .5), us(pr, .5), us(e, .5), us(en, .5), us(tot, .5), len(tot))
	}
	b.tr.table = append(b.tr.table, tb.String())
}

// covered is how much of s the union of kids' intervals covers.
func covered(s span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeTrace writes the run's span dump (the fleet's spans and stage
// lines plus the load process's) and the per-layer report next to it,
// with the tracing overhead against the latest untraced result of the
// same workload in the out directory.
func writeTrace(b *bench, headline map[string]float64, fleetSpans []span, stages []stageLine) {
	mine, _ := b.tr.snapshot()
	dump := filepath.Join(b.outDir, b.workload+"-spans.jsonl")
	if err := writeDump(dump, append(fleetSpans, mine...), stages); err != nil {
		b.notes = append(b.notes, "span dump failed: "+err.Error())
	}
	var sb strings.Builder
	for _, t := range b.tr.table {
		sb.WriteString(t)
	}
	var untraced struct {
		E2E map[string]metric `json:"end_to_end"`
	}
	data, err := os.ReadFile(filepath.Join(b.outDir, b.workload+".json"))
	if err == nil && json.Unmarshal(data, &untraced) == nil {
		names := make([]string, 0, len(headline))
		for n := range headline {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if m, ok := untraced.E2E[n]; ok {
				fmt.Fprintf(&sb, "tracing overhead on %s: traced %.4g - untraced %.4g = %+.4g %s\n", n, headline[n], m.Value, headline[n]-m.Value, m.Unit)
				b.set(b.extra, "trace.overhead_"+n, headline[n]-m.Value, m.Unit)
			}
		}
	} else {
		sb.WriteString("tracing overhead: no untraced result of this workload in the out directory yet; run --trace 0 first\n")
	}
	fmt.Fprintf(&sb, "span dump: %s\n", dump)
	_ = os.WriteFile(filepath.Join(b.outDir, b.workload+"-layers.txt"), []byte(sb.String()), 0o644)
	fmt.Print(sb.String())
}
