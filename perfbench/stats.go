package main

import (
	"sort"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the closest ranks; 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest quantile that leaves at least ten of a
// round's units beyond it, never below the median. It depends only on
// how many units one round of the workload dispatches, which the
// workload fixes, so the same percentile is reported on every run and
// every commit however many rounds fit in a run.
func tailQuantile(unitsPerRound int) float64 {
	p := 1 - 10/float64(unitsPerRound)
	if p < 0.5 {
		p = 0.5
	}
	return p
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}
