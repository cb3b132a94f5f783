package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOnlineMeanVariance(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if got := o.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean() = %v, want 5", got)
	}
	// Unbiased variance of the classic sample {2,4,4,4,5,5,7,9} is 32/7.
	if got, want := o.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance() = %v, want %v", got, want)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", o.Min(), o.Max())
	}
	if o.N() != 8 {
		t.Errorf("N() = %d, want 8", o.N())
	}
}

func TestOnlineSingleSample(t *testing.T) {
	var o Online
	o.Add(3.5)
	if o.Variance() != 0 {
		t.Errorf("Variance with one sample = %v, want 0", o.Variance())
	}
	if o.Min() != 3.5 || o.Max() != 3.5 {
		t.Errorf("Min/Max = %v/%v, want 3.5/3.5", o.Min(), o.Max())
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v) error: %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile(nil) succeeded, want error")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("Percentile(p=-1) succeeded, want error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("Percentile(p=101) succeeded, want error")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2, 0.75},
		{3, 1},
		{10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	q, err := e.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", q)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(1) != 0 {
		t.Errorf("empty ECDF At = %v, want 0", e.At(1))
	}
	if _, err := e.Quantile(0.5); err != ErrEmpty {
		t.Errorf("empty ECDF Quantile err = %v, want ErrEmpty", err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Underflow != 1 {
		t.Errorf("Underflow = %d, want 1", h.Underflow)
	}
	if h.Overflow != 2 {
		t.Errorf("Overflow = %d, want 2", h.Overflow)
	}
	wantCounts := []int64{2, 1, 1, 0, 1}
	for i, want := range wantCounts {
		if h.Counts[i] != want {
			t.Errorf("Counts[%d] = %d, want %d", i, h.Counts[i], want)
		}
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5", h.Total())
	}
	if got := h.BinCenter(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("BinCenter(0) = %v, want 1", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
	}
	for _, tt := range tests {
		if got := NormCDF(tt.x); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("NormCDF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestNormInvKnownValues(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.841344746068543, 1},
	}
	for _, tt := range tests {
		if got := NormInv(tt.p); math.Abs(got-tt.want) > 1e-8 {
			t.Errorf("NormInv(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsInf(NormInv(0), -1) || !math.IsInf(NormInv(1), 1) {
		t.Error("NormInv endpoints should be infinite")
	}
	if !math.IsNaN(NormInv(math.NaN())) {
		t.Error("NormInv(NaN) should be NaN")
	}
}

// Property: NormCDF(NormInv(p)) == p across the open unit interval.
func TestNormInvRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p < 1e-9 || p > 1-1e-9 {
			return true // skip the extremes where CDF saturates
		}
		return math.Abs(NormCDF(NormInv(p))-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NormInv is monotone nondecreasing.
func TestNormInvMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		p1 := math.Abs(math.Mod(a, 1))
		p2 := math.Abs(math.Mod(b, 1))
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return NormInv(p1) <= NormInv(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ECDF.At is monotone and bounded in [0, 1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		e := NewECDF(xs)
		if a > b {
			a, b = b, a
		}
		fa, fb := e.At(a), e.At(b)
		return fa >= 0 && fb <= 1 && fa <= fb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Online mean stays within [min, max] of the samples.
func TestOnlineMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var o Online
		ok := true
		for _, x := range xs {
			// Skip values whose pairwise differences overflow float64;
			// Welford's recurrence is only defined when x-mean is finite.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
			o.Add(x)
		}
		if o.N() > 0 {
			ok = o.Mean() >= o.Min()-1e-9 && o.Mean() <= o.Max()+1e-9
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LogNormal quantile and CDF invert each other.
func TestLogNormalRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		q := math.Abs(math.Mod(raw, 1))
		if q < 1e-6 || q > 1-1e-6 {
			return true
		}
		const mu, sigma = -1.2, 0.6
		x := LogNormalQuantile(mu, sigma, q)
		return math.Abs(LogNormalCDF(mu, sigma, x)-q) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogNormalCDFNonPositive(t *testing.T) {
	if got := LogNormalCDF(0, 1, 0); got != 0 {
		t.Errorf("LogNormalCDF(x=0) = %v, want 0", got)
	}
	if got := LogNormalCDF(0, 1, -3); got != 0 {
		t.Errorf("LogNormalCDF(x<0) = %v, want 0", got)
	}
}
