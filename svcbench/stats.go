package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a percentile
// before it is reported: with fewer, the value is one or two outliers
// and would not repeat from run to run.
const minBeyond = 10

// quantile is one percentile of a raw sample set, with the evidence
// behind it.
type quantile struct {
	Q      float64 // 0.5, 0.99, ...
	Value  float64 // an observed sample, never interpolated
	N      int     // samples in the set
	Beyond int     // samples strictly greater than Value
	OK     bool    // false: withheld, fewer than minBeyond samples beyond it
}

// percentile returns the nearest-rank q-quantile of sorted (ascending):
// the smallest sample with at least q·n samples at or below it. It is
// always an observed value, so it can never exceed the observed max,
// and it is withheld (OK false) when fewer than minBeyond samples lie
// beyond it.
func percentile(sorted []float64, q float64) quantile {
	n := len(sorted)
	out := quantile{Q: q, N: n}
	if n == 0 {
		return out
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	out.Value = sorted[idx]
	// First index holding a sample strictly greater than Value.
	above := sort.Search(n, func(i int) bool { return sorted[i] > out.Value })
	out.Beyond = n - above
	out.OK = out.Beyond >= minBeyond
	return out
}

// median returns the middle of xs (mean of the two middle values for
// an even count); xs is sorted in place. It is the summary for probe
// timings, where every sample counts and no percentile rule applies.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
