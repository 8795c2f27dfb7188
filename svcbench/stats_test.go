package main

import (
	"slices"
	"sort"
	"testing"
)

func TestPercentileExactNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	for _, tc := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.9, 900, 100},
	} {
		got := percentile(xs, tc.q)
		if got.Value != tc.want || got.Beyond != tc.beyond || got.N != 1000 || !got.OK {
			t.Errorf("q=%v: got %+v, want value %v beyond %d", tc.q, got, tc.want, tc.beyond)
		}
	}
}

func TestPercentileNeverAboveMax(t *testing.T) {
	// A heavy tail: the old power-of-two histogram reported a bucket
	// edge above the largest sample here.
	xs := []float64{}
	for i := 0; i < 2000; i++ {
		xs = append(xs, 1.0+float64(i%7)*0.01)
	}
	xs = append(xs, 27.94)
	sort.Float64s(xs)
	max := xs[len(xs)-1]
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		if got := percentile(xs, q); got.Value > max {
			t.Errorf("q=%v reported %v above max %v", q, got.Value, max)
		}
	}
}

func TestPercentileWithheldWithoutTail(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	// 500 samples: p99 is the 495th, with 5 beyond it.
	if got := percentile(xs, 0.99); got.OK || got.Beyond != 5 {
		t.Errorf("p99 of 500 samples: got %+v, want withheld with 5 beyond", got)
	}
	if got := percentile(xs, 0.5); !got.OK {
		t.Errorf("p50 of 500 samples withheld: %+v", got)
	}
	// Ties at the percentile do not count as beyond it.
	flat := make([]float64, 2000)
	for i := range flat {
		flat[i] = 3
	}
	if got := percentile(flat, 0.5); got.OK || got.Beyond != 0 || got.Value != 3 {
		t.Errorf("constant samples: got %+v, want withheld value 3", got)
	}
	if got := percentile(nil, 0.5); got.OK {
		t.Errorf("empty set reported a percentile: %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestCalmestKeepsTheLeastStolenHalf(t *testing.T) {
	steal := []float64{30, 0.5, 12, 0.5, 2}
	ws := make([]window, len(steal))
	for i, s := range steal {
		ws[i] = window{user: i, steal: s}
	}
	var got []int
	for _, w := range calmest(ws) {
		got = append(got, w.user)
	}
	// Half of five rounds up to three; ties keep time order.
	if want := []int{1, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("calmest kept windows %v, want %v", got, want)
	}
	if ws[0].steal != 30 || ws[4].steal != 2 {
		t.Error("calmest reordered its input")
	}
}
