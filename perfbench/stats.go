package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder step_tail_ms picks from, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail returns the highest percentile of the ladder with at least
// minBeyond samples strictly beyond its nearest-rank position, the value
// there, and how many samples lie beyond it. With too few samples for any
// rung it reports the median (p50) and its beyond-count.
func tail(xs []float64) (pct, value float64, beyond int) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 50, math.NaN(), 0
	}
	for i, p := range tailPercentiles {
		// 1-based nearest rank; the epsilon keeps p·n/100 that is a whole
		// number in exact arithmetic from rounding up a rank.
		rank := max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
		if n-rank >= minBeyond || i == len(tailPercentiles)-1 {
			return p, s[rank-1], n - rank
		}
	}
	panic("unreachable")
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
