package main

import (
	"math"
	"sort"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestSummaryReportsCountAndQualifiedTail(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending: summarize must sort a copy
	}
	s := summarize(xs)
	if s.N != 250 || s.TailPct != 95 {
		t.Fatalf("n %d tail %v, want 250 and p95", s.N, s.TailPct)
	}
	if s.P50 != 124.5 || s.Min != 0 || s.Max != 249 {
		t.Errorf("p50 %v min %v max %v", s.P50, s.Min, s.Max)
	}
	if want := percentile(sorted(xs), 95); s.Tail != want {
		t.Errorf("tail %v, want %v", s.Tail, want)
	}
	if xs[0] != 249 {
		t.Error("summarize reordered the caller's samples")
	}
	if small := summarize([]float64{3, 1, 2}); small.TailPct != 0 || small.Tail != 0 || small.P50 != 2 {
		t.Errorf("three samples: %+v", small)
	}
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
