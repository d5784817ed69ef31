package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported. Fewer than that and the percentile is set by a handful of
// outliers and moves from run to run.
const minBeyond = 10

// Class collects the latencies of one request class. Percentiles are only
// ever taken over one class: a mix of shapes that differ in cost (a 70 ms
// scan and a 350 ms join) has a median that falls in the gap between them
// and jumps from one cluster to the other as the mix shifts.
type Class struct {
	Name string
	ms   []float64
}

// Add records one latency in milliseconds.
func (c *Class) Add(ms float64) { c.ms = append(c.ms, ms) }

// N is the number of samples recorded.
func (c *Class) N() int { return len(c.ms) }

// Quantile is one reported percentile.
type Quantile struct {
	Q      float64 `json:"q"`
	Value  float64 `json:"value"`
	Beyond int     `json:"beyond"`
}

// Summary is a class's percentiles together with the sample count they
// were taken over.
type Summary struct {
	Class     string     `json:"class"`
	N         int        `json:"n"`
	Quantiles []Quantile `json:"quantiles"`
}

// Summarize returns the nearest-rank q-quantiles of the class. It fails
// when fewer than minBeyond samples lie beyond any requested quantile.
func (c *Class) Summarize(qs ...float64) (Summary, error) {
	s := Summary{Class: c.Name, N: len(c.ms)}
	sorted := append([]float64(nil), c.ms...)
	sort.Float64s(sorted)
	for _, q := range qs {
		v, beyond, ok := nearestRank(sorted, q)
		if !ok {
			return s, fmt.Errorf("class %s: p%g needs %d samples beyond it, %d samples give %d",
				c.Name, q*100, minBeyond, len(sorted), beyond)
		}
		s.Quantiles = append(s.Quantiles, Quantile{Q: q, Value: v, Beyond: beyond})
	}
	return s, nil
}

// Percentile is Summarize for a single quantile.
func (c *Class) Percentile(q float64) (float64, error) {
	s, err := c.Summarize(q)
	if err != nil {
		return 0, err
	}
	return s.Quantiles[0].Value, nil
}

// nearestRank returns sorted[ceil(q·n)−1] and how many samples lie beyond
// that rank; ok reports whether at least minBeyond do.
func nearestRank(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, 0, false
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	beyond = n - r
	return sorted[r-1], beyond, beyond >= minBeyond
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs, computed as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		// position j·(n+1)/4, 1-based, interpolated and clamped to the ends
		m := float64(n+1) * float64(j) / 4
		i := int(math.Floor(m))
		f := m - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + f*(s[i]-s[i-1])
	}
	return at(1), at(3)
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
