package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one scheduled operation and its timeline: intended is when the
// schedule says it is sent, claimed when a worker (and with it a
// connection) took it, started when it was sent, done when its answer
// was read.
type op struct {
	id       uint64
	req      request
	intended time.Time
	claimed  time.Time
	started  time.Time
	done     time.Time
	err      error
	span     uint64 // client span ID (traced runs)
	wrong    bool   // the answer arrived but failed an output check
}

// latency is measured from the intended send time, so waiting for a
// connection counts against the system (no coordinated omission). It
// splits exactly into connWait + sendLate + service.
func (o *op) latency() time.Duration { return o.done.Sub(o.intended) }

// connWait is how long the op waited past its instant for a free worker.
func (o *op) connWait() time.Duration { return max(0, o.claimed.Sub(o.intended)) }

// sendLate is the generator's own lateness: from the later of the
// intended instant and the claim to the send.
func (o *op) sendLate() time.Duration {
	from := o.intended
	if o.claimed.After(from) {
		from = o.claimed
	}
	return o.started.Sub(from)
}

func (o *op) serviceT() time.Duration     { return o.done.Sub(o.started) }
func (o *op) failed() bool                { return o.err != nil }
func (o *op) finishedBy(t time.Time) bool { return !o.done.After(t) }

// poisson returns the intended send offsets of a Poisson stream of the
// given rate over d: exponential gaps drawn from rng, so a seed fixes the
// whole schedule.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, t)
	}
}

// openLoop runs one open-loop phase: every op is sent at its scheduled
// instant whatever the system's state, by a pool of `workers` goroutines
// (one connection each). A free worker claims the next op and sleeps
// until its instant; when every worker is busy, the op waits for the
// first free one, and that wait counts in its latency. When the
// schedule ends, every op already scheduled drains to completion —
// nothing is cancelled, so the end of a run can never surface as
// failures or breaker opens.
func openLoop(ops []*op, offsets []time.Duration, workers int, exec func(*op) error) {
	start := time.Now()
	for i, o := range ops {
		o.intended = start.Add(offsets[i])
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := ops[i]
				o.claimed = time.Now()
				if d := o.intended.Sub(o.claimed); d > 0 {
					sleepPrecise(d)
				}
				o.started = time.Now()
				o.err = exec(o)
				o.done = time.Now()
			}
		}()
	}
	wg.Wait()
}

// sleepPrecise blocks the calling thread in nanosleep for d. A
// goroutine's time.Sleep wakes through the runtime's timers, which on a
// 2-vCPU VM overshot by ~0.7 ms at the median, half the read-hot p50;
// nanosleep overshot by ~0.07 ms.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop runs `workers` closed-loop clients for d: each sends its next
// op as soon as the previous one answers. It returns the ops completed
// inside the window (in-flight ops at the deadline still drain, but do
// not count toward throughput) and the failures among all sent ops.
func closedLoop(workers int, d time.Duration, next func(worker int) *op, exec func(*op) error) (completed, failed int) {
	var done, fails atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := next(w)
				o.intended = time.Now()
				o.claimed, o.started = o.intended, o.intended
				o.err = exec(o)
				o.done = time.Now()
				if o.failed() {
					fails.Add(1)
				} else if o.finishedBy(deadline) {
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return int(done.Load()), int(fails.Load())
}

// phaseStats folds an open-loop phase's ops into its distributions.
type phaseStats struct {
	latency, sendLate, connWait, service dist
	attempted, failed                    int
	firstErr                             error
}

func foldOps(ops []*op) phaseStats {
	var s phaseStats
	for _, o := range ops {
		s.attempted++
		if o.failed() {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = o.err
			}
			continue
		}
		s.latency.add(o.latency())
		s.sendLate.add(o.sendLate())
		s.connWait.add(o.connWait())
		s.service.add(o.serviceT())
	}
	return s
}
