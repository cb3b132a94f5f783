// Command spotbench is SpotLight's end-to-end benchmark. One invocation
// boots a fleet (a leader, a follower tailing it over /v2/watch, and the
// scatter-gather gateway in front of both) in a fleet process of its own,
// drives it from this load process, checks every answer, and prints the
// workload's metrics. Every layer is timed from outside: the spans come
// from benchmark code wrapped around the system's public entry points.
//
// Usage (from the repository root; spotbench/run.sh builds and runs it):
//
//	spotbench --workload read-hot|read-cold|live --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The full report, the traced run's span dump and its
// per-layer table go to --out. See spotbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Workloads.
const (
	wlReadHot  = "read-hot"
	wlReadCold = "read-cold"
	wlLive     = "live"
)

// The metrics the result line carries: end-to-end ones on untraced runs,
// per-layer ones on traced runs. Each is measured on every workload, so
// every run reports all of them; BENCHMARK.json lists the same names.
var (
	resultE2E = []string{"setup_s", "read_cpu_us_per_op", "replica_catchup_s", "recovery_s", "disk_bytes_per_record", "heap_peak_mb"}

	resultLayers = []string{
		"gen.send_late_p99_ms", "gen.conn_wait_p99_ms",
		"gateway.handler_p50_us", "gateway.self_p50_us",
		"gateway.upstream_p50_us", "gateway.upstream_p99_us", "gateway.upstream_calls_per_req",
		"gateway.retries", "gateway.hedges", "gateway.breaker_opens", "gateway.upstream_errors",
		"query.parse_p50_us", "query.cache_probe_p50_us", "query.exec_p50_us", "query.encode_p50_us",
		"query.parse_p99_us", "query.cache_probe_p99_us", "query.exec_p99_us", "query.encode_p99_us",
		"query.http_overhead_us", "query.cache_hit_ratio", "advisor.memo_hit_ratio",
		"monitor.tick_p50_ms", "monitor.tick_p99_ms", "sim.step_p50_ms",
		"store.wal_flush_p50_ms", "store.wal_flush_p99_ms", "store.wal_bytes_per_record",
		"store.snapshot_max_s", "store.replay_s",
		"replica.applied", "replica.skipped", "replica.resyncs", "replica.reconnects", "replica.lag_records_max",
		"runtime.gc_pause_p99_ms", "runtime.gc_cycles", "runtime.sched_latency_p99_ms",
		"trace.covered_share",
	}
)

// runLimit bounds a whole run; past it the load process stops the fleet
// process and fails.
const runLimit = 170 * time.Second

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one process's configuration and measurements.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	nproc    int
	tr       *tracer // nil on untraced runs
	outDir   string
	tmpDir   string

	client *httpClient // the load process's connection pool (nproc conns)
	book   *etagBook

	conditions map[string]any
	fp         fingerprint
	e2e        map[string]metric
	layers     map[string]metric
	extra      map[string]metric // printed, not part of the result line
	attempted  int
	failed     int
	// lost counts watch events a watcher never received (lagged
	// markers, ticks it never saw): they enter error_ratio, but are not
	// failed operations of the load process.
	lost       int
	violations []string // output-check mismatches: any one fails the run
	notes      []string
	result     *fleetResult // the fleet process's extra result fields
}

func (b *bench) set(m map[string]metric, name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// violate records an output-check mismatch.
func (b *bench) violate(format string, args ...any) {
	b.violations = append(b.violations, fmt.Sprintf(format, args...))
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("spotbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "read-hot, read-cold or live")
	seed := fs.Int64("seed", 42, "seed for the study and every request stream")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for reports and span dumps")
	tmp := fs.String("tmp", ".bench_build/spotbench-tmp", "scratch directory for data dirs")
	role := fs.String("role", "load", "load (the command) or fleet (the process it spawns)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	switch *workload {
	case wlReadHot, wlReadCold, wlLive:
	default:
		return 2, fmt.Errorf("unknown --workload %q (want read-hot, read-cold or live)", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
		outDir:   *out,
		tmpDir:   filepath.Join(*tmp, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
		extra:    map[string]metric{},
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return 1, err
	}
	switch *role {
	case "fleet":
		if *trace == 1 {
			b.tr = newTracer(0)
		}
		return runFleet(b)
	case "load":
		if *trace == 1 {
			b.tr = newTracer(1 << 40)
		}
		return runLoad(b, args)
	}
	return 2, fmt.Errorf("unknown --role %q", *role)
}

// runFleet is the fleet process: it serves the protocol on stdin/stdout
// and ends with one result event.
func runFleet(b *bench) (int, error) {
	fsd := newFleetSide()
	hw := startHeapWatch(5 * time.Millisecond)
	if err := os.MkdirAll(b.tmpDir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(b.tmpDir)
	var err error
	if b.workload == wlLive {
		err = fleetLive(b, fsd)
	} else {
		err = fleetRead(b, fsd)
	}
	if err != nil {
		fsd.emit(fleetMsg{Event: "error", Err: err.Error()})
		return 1, err
	}
	live, objects := hw.close()
	b.set(b.e2e, "heap_peak_mb", live, "MB")
	b.set(b.extra, "heap_objects_peak_mb", objects, "MB")
	res := b.result
	if res == nil {
		res = &fleetResult{}
	}
	res.E2E, res.Layers, res.Extra = b.e2e, b.layers, b.extra
	res.Violations, res.Notes = b.violations, b.notes
	if b.tr != nil {
		res.SpanFile = filepath.Join(b.outDir, b.workload+"-fleet-spans.jsonl")
		if err := b.tr.dump(res.SpanFile); err != nil {
			return 1, err
		}
	}
	if err := fsd.emit(fleetMsg{Event: "result", Result: res}); err != nil {
		return 1, err
	}
	return 0, nil
}

// runLoad is the command: spawn the fleet process, drive the workload,
// merge both sides' measurements, report.
func runLoad(b *bench, args []string) (int, error) {
	b.client = newHTTPClient(b.nproc)
	defer b.client.close()
	b.book = newETagBook()
	fp, err := startFleet(args)
	if err != nil {
		return 1, err
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "spotbench: run exceeded %v; stopping\n", runLimit)
		fp.cmd.Process.Kill()
		fp.cmd.Wait()
		os.Exit(1)
	})
	defer watchdog.Stop()
	code, err := drive(b, fp)
	if cerr := fp.close(); err == nil && cerr != nil {
		err = fmt.Errorf("fleet process: %w", cerr)
		code = 1
	}
	return code, err
}

func drive(b *bench, fp *fleetProc) (int, error) {
	ds, err := fp.expect("dataset")
	if err != nil {
		return 1, err
	}
	b.fp = *ds.Fingerprint
	b.set(b.extra, "dataset_build_s", ds.BuildS, "s")
	var ops []*op
	var ps phaseStats
	if b.workload == wlLive {
		ops, ps, err = loadLive(b, fp, ds)
	} else {
		ops, ps, err = loadRead(b, fp, ds)
	}
	if err != nil {
		return 1, err
	}
	if err := fp.send("stop"); err != nil {
		return 1, err
	}
	m, err := fp.expect("result")
	if err != nil {
		return 1, err
	}
	r := m.Result
	for dst, src := range map[*map[string]metric]map[string]metric{&b.e2e: r.E2E, &b.layers: r.Layers, &b.extra: r.Extra} {
		for k, v := range src {
			(*dst)[k] = v
		}
	}
	b.violations = append(b.violations, r.Violations...)
	b.notes = append(b.notes, r.Notes...)
	if reads := ps.attempted - ps.failed; reads > 0 {
		// The fleet's CPU time over the fixed-rate phase per read answered
		// (on live it also carries the ticks): the capacity a read costs,
		// which hypervisor steal does not inflate the way it does latency.
		b.set(b.e2e, "read_cpu_us_per_op", 1e6*r.Extra["fleet_cpu_s"].Value/float64(reads), "us")
	}
	b.attempted += r.Ticks
	b.lost = r.Lost
	genLayers(b, ops, ps)
	if b.tr != nil {
		spans, stages, err := loadDump(r.SpanFile)
		if err != nil {
			return 1, err
		}
		os.Remove(r.SpanFile)
		spanLayers(b, ops, ps, spans, stages)
		if r.Table != "" {
			b.tr.table = append(b.tr.table, r.Table)
		}
		writeTrace(b, map[string]float64{"read_p50_ms": b.e2e["read_p50_ms"].Value, "read_p99_ms": b.e2e["read_p99_ms"].Value}, spans, stages)
	}
	return b.finish(), nil
}

// conditionsFor records what a result was measured under.
func (b *bench) conditionsFor(rates map[string]any) {
	rev := "unknown"
	// --git-dir pins git to this checkout: outside a git checkout the
	// revision is unknown rather than some enclosing repository's.
	if out, err := exec.Command("git", "--git-dir=.git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	b.conditions = map[string]any{
		"workload":           b.workload,
		"seed":               b.seed,
		"seconds":            b.seconds.Seconds(),
		"traced":             b.tr != nil,
		"nproc":              b.nproc,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"git_rev":            rev,
		"client_connections": b.nproc,
		"client_workers":     b.nproc,
		"processes":          "load + fleet",
	}
	for k, v := range rates {
		b.conditions[k] = v
	}
}

// finish prints the report, writes it to the out directory, prints the
// result line, and returns the exit code: non-zero on any output-check
// mismatch.
func (b *bench) finish() int {
	correct := len(b.violations) == 0
	var sb strings.Builder
	fmt.Fprintf(&sb, "spotbench %s (seed %d, %v measured, traced=%v)\n", b.workload, b.seed, b.seconds, b.tr != nil)
	fmt.Fprintf(&sb, "dataset: %s\n", b.fp)
	keys := make([]string, 0, len(b.conditions))
	for k := range b.conditions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sb.WriteString("conditions:")
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%v", k, b.conditions[k])
	}
	sb.WriteString("\n")
	for _, sec := range []struct {
		title string
		m     map[string]metric
	}{{"end-to-end", b.e2e}, {"per-layer", b.layers}, {"other", b.extra}} {
		if len(sec.m) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%s metrics:\n", sec.title)
		names := make([]string, 0, len(sec.m))
		for n := range sec.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&sb, "  %-34s %14.6g %s\n", n, sec.m[n].Value, sec.m[n].Unit)
		}
	}
	for _, n := range b.notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	errRatio := 0.0
	if b.attempted > 0 {
		errRatio = float64(b.failed+b.lost) / float64(b.attempted)
	}
	fmt.Fprintf(&sb, "ops: %d attempted, %d failed, %d watch events lost (error_ratio %.6g)\n", b.attempted, b.failed, b.lost, errRatio)
	for _, v := range b.violations {
		fmt.Fprintf(&sb, "OUTPUT CHECK FAILED: %s\n", v)
	}
	if correct {
		sb.WriteString("output checks: all passed\n")
	}
	fmt.Print(sb.String())

	names, src := resultE2E, b.e2e
	suffix := ""
	if b.tr != nil {
		names, src, suffix = resultLayers, b.layers, "-traced"
	}
	line := map[string]any{
		"correct":   correct,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
	}
	ms := map[string]metric{}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			fmt.Printf("OUTPUT CHECK FAILED: metric %s was not measured\n", n)
			correct = false
			line["correct"] = false
			continue
		}
		ms[n] = m
	}
	line["metrics"] = ms
	full := map[string]any{
		"conditions": b.conditions, "fingerprint": b.fp, "end_to_end": b.e2e,
		"per_layer": b.layers, "other": b.extra, "violations": b.violations,
		"attempted": b.attempted, "failed": b.failed, "error_ratio": errRatio,
	}
	if data, err := json.MarshalIndent(full, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(b.outDir, b.workload+suffix+".json"), data, 0o644)
	}
	_ = os.WriteFile(filepath.Join(b.outDir, b.workload+suffix+".txt"), []byte(sb.String()), 0o644)
	data, _ := json.Marshal(line)
	fmt.Println(string(data))
	if !correct {
		return 1
	}
	return 0
}
