package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// midMean is the interquartile mean: the mean of the middle half of xs,
// the lowest and the highest quarter dropped.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile is the highest percentile of the ladder that n samples
// support with minBeyond samples beyond it. The ladder stops at p95:
// beyond it a run on a shared 2-vCPU sandbox measures the sandbox (an
// idle, independent process there wakes from sleep up to 40 ms late
// about once a second while the server is busy), not the server. Below
// 20 samples even the median fails the rule; 50 is returned and the
// caller reports n.
func tailPercentile(n int) float64 {
	for _, p := range []float64{95, 90, 75} {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}
