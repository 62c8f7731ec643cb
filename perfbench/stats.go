package main

import (
	"math"
	"slices"
)

// tailBeyond is how many samples must lie above a percentile's rank for
// it to count as the reported tail.
const tailBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// tail returns the highest whole nearest-rank percentile, from p99
// down to p50, that leaves at least tailBeyond samples above its rank,
// together with that percentile. With fewer samples than any of those
// allows, it returns the maximum and 100.
func tail(xs []float64) (value float64, pct int) {
	n := len(xs)
	for p := 99; p >= 50; p-- {
		rank := (p*n + 99) / 100
		if n-rank >= tailBeyond {
			return percentile(xs, float64(p)), p
		}
	}
	return percentile(xs, 100), 100
}

// median returns the middle sample of xs, or the mean of the two
// middle samples for an even count; 0 for an empty slice. It summarises
// repetitions, where the nearest-rank rule would pick the smaller of
// two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// busyFrac is the share of the workers' available time spent on cells:
// the summed cell time over wall time times the worker count.
func busyFrac(cellSeconds, wallSeconds float64, workers int) float64 {
	if wallSeconds <= 0 || workers < 1 {
		return 0
	}
	return cellSeconds / (wallSeconds * float64(workers))
}

// failedFrac is failed operations over attempted operations (0 when
// nothing was attempted).
func failedFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
