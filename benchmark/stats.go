package main

import (
	"math"
	"sort"
	"time"
)

// summary describes one metric's samples within a run: how many there
// were, their median and their quartiles.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

// spread is the interquartile range as a share of the median — the
// same noise figure the driver computes across runs.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q1, q2, q3 := quartiles(xs)
	return summary{N: len(xs), Median: q2, Q1: q1, Q3: q3}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles cuts xs the way Python's statistics.quantiles(xs, n=4) does
// (the "exclusive" method), so a spread printed here can be compared
// with the one the driver computes. Fewer than two samples have no
// spread: all three cuts are the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile is the nearest-rank percentile: the smallest sample with
// at least p (0 < p <= 1) of all samples at or below it. With n >= 1000
// the 99th percentile has at least ten samples beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, and 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
