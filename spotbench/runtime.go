package main

import (
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Go runtime/metrics names the benchmark reads.
const (
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmHeapObject = "/memory/classes/heap/objects:bytes"
	rmHeapLive   = "/gc/heap/live:bytes"
)

// rtSample is one read of the cumulative runtime metrics.
type rtSample struct {
	pauses, sched *metrics.Float64Histogram
	cycles        uint64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: rmGCPauses}, {Name: rmSchedLat}, {Name: rmGCCycles}}
	metrics.Read(s)
	return rtSample{
		pauses: s[0].Value.Float64Histogram(),
		sched:  s[1].Value.Float64Histogram(),
		cycles: s[2].Value.Uint64(),
	}
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	GCPauseP99Ms  float64 `json:"gc_pause_p99_ms"`
	GCCycles      uint64  `json:"gc_cycles"`
	SchedLatP99Ms float64 `json:"sched_latency_p99_ms"`
}

func runtimeDelta(a, b rtSample) rtDelta {
	return rtDelta{
		GCPauseP99Ms:  1e3 * histQuantile(a.pauses, b.pauses, 0.99),
		GCCycles:      b.cycles - a.cycles,
		SchedLatP99Ms: 1e3 * histQuantile(a.sched, b.sched, 0.99),
	}
}

// histQuantile is the q-quantile of the difference of two cumulative
// runtime histograms, reported as the upper bound of the winning bucket
// (the lower bound when the upper one is +Inf).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var run uint64
	for i, c := range counts {
		run += c
		if run >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// heapWatch samples the heap every few milliseconds and keeps two
// peaks: the live heap (bytes still reachable at the end of a GC cycle)
// and the sampled heap objects (live plus not yet collected garbage).
// The first is the process's memory footprint and repeats run to run;
// the second also moves with GC timing.
type heapWatch struct {
	live, objects atomic.Uint64
	stop          chan struct{}
	wg            sync.WaitGroup
}

func startHeapWatch(every time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: rmHeapLive}, {Name: rmHeapObject}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			maxStore(&h.live, s[0].Value.Uint64())
			maxStore(&h.objects, s[1].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func maxStore(a *atomic.Uint64, v uint64) {
	if v > a.Load() {
		a.Store(v)
	}
}

// close stops sampling and returns both peaks in MiB.
func (h *heapWatch) close() (live, objects float64) {
	close(h.stop)
	h.wg.Wait()
	return float64(h.live.Load()) / (1 << 20), float64(h.objects.Load()) / (1 << 20)
}

// cpuTicks reads the machine-wide CPU tick counters from /proc/stat:
// the total and the share stolen by the hypervisor. ok is false where
// /proc/stat does not exist.
func cpuTicks() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already inside user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealShare is the share of CPU time the hypervisor stole between two
// cpuTicks readings, in percent.
func stealShare(t0, s0, t1, s1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return 100 * float64(s1-s0) / float64(t1-t0)
}

// processCPU is the CPU time (user + system) this process has used. Time
// the hypervisor stole from the machine is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
