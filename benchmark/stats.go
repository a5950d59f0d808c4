package main

import (
	"math"
	"sort"
)

// value is one reported number: typed, with its unit, the sample count behind
// it, and — for statistics over samples — the quartiles of those samples.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// samples collects measurements of one kind; the zero value is ready.
type samples struct {
	v      []float64
	sorted bool
}

func (s *samples) add(x float64) { s.v = append(s.v, x); s.sorted = false }

func (s *samples) n() int { return len(s.v) }

// quantile returns the p-quantile (0..1) by linear interpolation between the
// closest ranks; 0 with no samples.
func (s *samples) quantile(p float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	pos := p * float64(len(s.v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s.v[lo] + (s.v[hi]-s.v[lo])*(pos-float64(lo))
}

func (s *samples) median() float64 { return s.quantile(0.5) }

// tailMean returns the mean of the slowest frac of the samples.
func (s *samples) tailMean(frac float64) (mean float64, n int) {
	s.quantile(1) // sorts
	n = int(frac * float64(len(s.v)))
	if n == 0 {
		return 0, 0
	}
	for _, x := range s.v[len(s.v)-n:] {
		mean += x
	}
	return mean / float64(n), n
}

// stat reports the p-quantile of the samples scaled into unit, with the
// sample count and the quartiles.
func (s *samples) stat(p, scale float64, unit string) value {
	return value{
		Value: s.quantile(p) * scale, Unit: unit, N: s.n(),
		Q1: s.quantile(0.25) * scale, Q3: s.quantile(0.75) * scale,
	}
}

// scalar reports a single measured or counted number.
func scalar(x float64, unit string, n int) value { return value{Value: x, Unit: unit, N: n} }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
