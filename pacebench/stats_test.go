package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.50, 50, 50},
		{100, 0.99, 99, 1},
		{100, 1.00, 100, 0},
		{1000, 0.99, 990, 10},
		{1, 0.99, 1, 0},
		{7, 0.90, 7, 0},
	}
	for _, c := range cases {
		got, beyond := percentile(seq(c.n), c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..%d, %v) = %v with %d beyond, want %v with %d", c.n, c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

// A failed request is +Inf: it must land beyond every latency limit.
func TestPercentileCountsFailuresAsSlowest(t *testing.T) {
	xs := seq(100)
	xs[0], xs[1] = math.Inf(1), math.Inf(1)
	if got, _ := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2 failures in 100 = %v, want +Inf", got)
	}
	if got, _ := percentile(xs, 0.98); math.IsInf(got, 1) {
		t.Errorf("p98 with 2 failures in 100 = %v, want finite", got)
	}
}

func TestTailSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {100, 0.90, true}, {99, 0.90, false}, {5000, 0.99, true},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), the
// spread definition acceptance uses; the expected values are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 9}, 4, 10},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..5) = %v, want 1", got)
	}
}
