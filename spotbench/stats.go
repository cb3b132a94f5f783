package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// dist is a set of latency samples in nanoseconds. Percentiles are exact
// (nearest rank over the sorted samples), never bucket estimates.
type dist []int64

func (d *dist) add(v time.Duration) { *d = append(*d, int64(v)) }

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the nearest-rank q-quantile of sorted samples (0 when
// empty).
func (d dist) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return time.Duration(d[i])
}

func (d dist) max() time.Duration {
	if len(d) == 0 {
		return 0
	}
	return time.Duration(d[len(d)-1])
}

// reliableQuantile is the highest percentile that still has at least
// minBeyond samples above it: with n samples, p = 1 - minBeyond/n. Tail
// percentiles past it rest on fewer than minBeyond observations and
// should not be compared run to run.
func reliableQuantile(n, minBeyond int) float64 {
	if n <= minBeyond {
		return 0
	}
	return 1 - float64(minBeyond)/float64(n)
}

// summary is the printable view of one distribution: median and p99
// with the sample count behind them, and the highest percentile that
// has at least ten samples beyond it.
type summary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	P99      float64 `json:"p99"`
	Max      float64 `json:"max"`
	Reliable float64 `json:"reliable_pct"`
	RelValue float64 `json:"reliable_value"`
}

// summarize sorts d and reports it in unit (e.g. time.Millisecond).
func summarize(d dist, unit time.Duration) summary {
	s := d.sorted()
	q := reliableQuantile(len(s), 10)
	return summary{
		N:        len(s),
		P50:      float64(s.quantile(0.50)) / float64(unit),
		P99:      float64(s.quantile(0.99)) / float64(unit),
		Max:      float64(s.max()) / float64(unit),
		Reliable: 100 * q,
		RelValue: float64(s.quantile(q)) / float64(unit),
	}
}

func (s summary) String() string {
	return fmt.Sprintf("p50 %.4g  p99 %.4g  max %.4g  (n=%d; p%.2f=%.4g is the highest percentile with >=10 samples beyond)",
		s.P50, s.P99, s.Max, s.N, s.Reliable, s.RelValue)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
