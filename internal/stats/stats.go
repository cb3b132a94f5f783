// Package stats provides the small statistics toolkit used across the
// SpotLight reproduction: streaming moments, empirical CDFs, histograms,
// correlation, and the normal/lognormal quantile functions that power the
// simulator's parametric spot-market bid curve.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions that need at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Online accumulates streaming mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Online struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of samples added.
func (o *Online) N() int64 { return o.n }

// Mean returns the sample mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest sample, or 0 with no samples.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample, or 0 with no samples.
func (o *Online) Max() float64 { return o.max }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// ECDF is an empirical cumulative distribution function built from a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied, then sorted).
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the number of samples underlying the ECDF.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the smallest sample x with P(X <= x) >= q, clamping q to
// [0, 1].
func (e *ECDF) Quantile(q float64) (float64, error) {
	if len(e.sorted) == 0 {
		return 0, ErrEmpty
	}
	q = Clamp(q, 0, 1)
	idx := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.sorted[idx], nil
}

// Histogram counts samples into fixed-width bins over [Lo, Hi); samples
// outside the range land in the under/overflow counters.
type Histogram struct {
	Lo, Hi    float64
	Counts    []int64
	Underflow int64
	Overflow  int64
	width     float64
}

// NewHistogram creates a histogram with bins equal-width bins spanning
// [lo, hi). It panics if bins <= 0 or hi <= lo, which are programming errors.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{
		Lo:     lo,
		Hi:     hi,
		Counts: make([]int64, bins),
		width:  (hi - lo) / float64(bins),
	}
}

// Add counts one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		idx := int((x - h.Lo) / h.width)
		if idx >= len(h.Counts) { // guard against float rounding at the edge
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// Total returns the number of in-range samples.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.width
}

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
