package main

import (
	"math/rand"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestTailRule: the reported tail is the highest percentile of the ladder
// with at least ten samples strictly beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n          int
		pct        float64
		beyond     int
		valueIndex int // 0-based index of the expected value in 1..n
	}{
		{n: 100, pct: 90, beyond: 10, valueIndex: 89},
		{n: 109, pct: 90, beyond: 10, valueIndex: 98},
		{n: 199, pct: 90, beyond: 19, valueIndex: 179},
		{n: 200, pct: 95, beyond: 10, valueIndex: 189},
		{n: 999, pct: 95, beyond: 49, valueIndex: 949},
		{n: 1000, pct: 99, beyond: 10, valueIndex: 989},
		{n: 10000, pct: 99.9, beyond: 10, valueIndex: 9989},
		{n: 40, pct: 75, beyond: 10, valueIndex: 29},
		{n: 20, pct: 50, beyond: 10, valueIndex: 9},
		{n: 5, pct: 50, beyond: 2, valueIndex: 2}, // too few: the median
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(c.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		pct, v, beyond := tail(xs)
		if pct != c.pct || beyond != c.beyond || v != float64(c.valueIndex+1) {
			t.Errorf("n=%d: tail = p%g value %v (%d beyond), want p%g value %d (%d beyond)",
				c.n, pct, v, beyond, c.pct, c.valueIndex+1, c.beyond)
		}
		if c.n > 20 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}
