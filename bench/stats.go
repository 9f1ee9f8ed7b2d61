package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark keeps its own arithmetic rather than calling internal/stats:
// a change to the system under test must not be able to move the instrument
// that measures it.

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two nearest order statistics (the "inclusive"
// definition: q=0 is the minimum, q=1 the maximum). It returns NaN for an
// empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is a median with its quartiles and sample count — the form every
// repeated measurement is reported in.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and quartiles of values (which it sorts a
// copy of).
func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure a regression bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func median(values []float64) float64 { return summarize(values).Median }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// msOf converts durations to sorted milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
