package main

import (
	"math"
	"strings"
	"testing"
)

// twoClusters returns n latencies, fast of them near 70 ms (Q1, Q3) and the
// rest near 350 ms (Q2, Q4), with a small deterministic jitter.
func twoClusters(n, fast int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		jitter := float64(i%7) - 3
		if i < fast {
			xs[i] = 70 + jitter
		} else {
			xs[i] = 350 + jitter
		}
	}
	return xs
}

func classOf(name string, xs []float64) *Class {
	c := &Class{Name: name}
	for _, x := range xs {
		c.Add(x)
	}
	return c
}

// A median over a mix of two shapes falls into whichever cluster holds the
// middle sample, so two runs whose mixes differ by two queries report
// medians five times apart. Taken per class, each median stays put.
func TestMixedClassMedianJumpsBetweenClusters(t *testing.T) {
	a, err := classOf("mix", twoClusters(200, 101)).Percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := classOf("mix", twoClusters(200, 99)).Percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a > 80 || b < 340 {
		t.Fatalf("mixed medians %.1f and %.1f: expected one in each cluster", a, b)
	}
	for _, fast := range []int{99, 101} {
		xs := twoClusters(200, fast)
		f, err := classOf("fast", xs[:fast]).Percentile(0.5)
		if err != nil {
			t.Fatal(err)
		}
		s, err := classOf("slow", xs[fast:]).Percentile(0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f-70) > 3 || math.Abs(s-350) > 3 {
			t.Fatalf("per-class medians %.1f and %.1f, want about 70 and 350", f, s)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s, err := classOf("q", xs).Summarize(0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 100 || s.Class != "q" {
		t.Fatalf("summary reports class %q over %d samples, want q over 100", s.Class, s.N)
	}
	if p90 := s.Quantiles[1]; p90.Value != 90 || p90.Beyond != 10 {
		t.Fatalf("p90 = %v with %d beyond, want 90 with 10", p90.Value, p90.Beyond)
	}
	if _, err := classOf("q", xs[:99]).Percentile(0.9); err == nil || !strings.Contains(err.Error(), "99 samples") {
		t.Fatalf("p90 of 99 samples: err = %v, want a refusal naming the sample count", err)
	}
	if _, err := classOf("q", xs).Percentile(0.99); err == nil {
		t.Fatal("p99 of 100 samples was reported with one sample beyond it")
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which the
// steadiness figures are compared against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestRemainingErr(t *testing.T) {
	// A 100 s query whose estimates are exact scores 0.
	got, err := remainingErr([]float64{10, 50}, []float64{90, 50}, 100)
	if err != nil || got != 0 {
		t.Fatalf("exact estimates: %v, %v", got, err)
	}
	// Off by 10 s at t=10 and unknown (-1, all 50 s missed) at t=50.
	got, err = remainingErr([]float64{10, 50}, []float64{80, -1}, 100)
	if err != nil || math.Abs(got-30) > 1e-12 {
		t.Fatalf("got %v, %v; want 30%%", got, err)
	}
	if _, err := remainingErr(nil, nil, 100); err == nil {
		t.Fatal("a query with no refresh before its final report was scored")
	}
}
