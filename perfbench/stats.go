package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named measurement: the value the driver reads plus, for
// sampled metrics, the in-run samples with their median and quartiles.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	// Percentile is the percentile a tail metric reports (see tail).
	Percentile float64   `json:"percentile,omitempty"`
	Q1         float64   `json:"q1,omitempty"`
	Median     float64   `json:"median,omitempty"`
	Q3         float64   `json:"q3,omitempty"`
	Samples    []float64 `json:"samples,omitempty"`
}

// scalar is a metric measured once per run (a ratio of totals, a count).
func scalar(unit string, v float64) metric { return metric{Value: v, Unit: unit} }

// sampled reports the median of the samples, keeping them and their
// quartiles for the result file.
func sampled(unit string, xs []float64) metric {
	m := metric{Unit: unit, N: len(xs), Samples: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		return m
	}
	m.Q1, m.Median, m.Q3 = quartiles(xs)
	m.Value = m.Median
	return m
}

// tail reports the p-th percentile when at least ten samples lie beyond
// it, and otherwise the highest percentile that has ten beyond it (the
// median when even that is out of reach), so a short run never reports
// a tail it did not observe.
func tail(unit string, xs []float64, p float64) metric {
	m := sampled(unit, xs)
	n := len(xs)
	if n == 0 {
		return m
	}
	for ; p > 0.5; p -= 0.05 {
		if float64(n)*(1-p) >= 10 {
			break
		}
	}
	if p < 0.5 {
		p = 0.5
	}
	m.Value, m.Percentile = percentile(xs, p), p
	return m
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// exclusive method) so in-run spreads read like the driver's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(xs), q(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is linear interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
