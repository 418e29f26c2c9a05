package main

import (
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, // nothing is supported below 20 samples; the median is the floor
		{20, 0.50},
		{99, 0.50},
		{100, 0.90},
		{200, 0.95},
		{999, 0.95}, // p99 of 999 leaves 9 beyond
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Exactly ten samples lie beyond the p99 of 1000.
	if beyond := len(xs) - int(quantile(xs, 0.99)); beyond != 10 {
		t.Errorf("%d samples beyond p99, want 10", beyond)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g", got)
	}
}

func TestMedianAndMillis(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	ms := millis([]time.Duration{3 * time.Millisecond, 1500 * time.Microsecond})
	if len(ms) != 2 || ms[0] != 1.5 || ms[1] != 3 {
		t.Errorf("millis = %v", ms)
	}
}

func TestRelWorse(t *testing.T) {
	if got := relWorse(100, 110, "lower"); got != 0.10 {
		t.Errorf("lower-is-better 100 -> 110 = %g", got)
	}
	if got := relWorse(100, 90, "higher"); got != 0.10 {
		t.Errorf("higher-is-better 100 -> 90 = %g", got)
	}
	if got := relWorse(100, 90, "lower"); got != -0.10 {
		t.Errorf("an improvement must read negative, got %g", got)
	}
}
