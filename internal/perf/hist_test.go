package perf

import (
	"testing"
	"time"
)

// TestHistBucketBoundaries pins the documented bucket layout: bucket 0
// holds 0ns and 1ns, bucket i holds [2^i, 2^(i+1)). Regression for the
// off-by-one that put 1ns in bucket 1.
func TestHistBucketBoundaries(t *testing.T) {
	bucketOf := func(ns int64) int {
		var h Hist
		h.Observe(time.Duration(ns))
		for i := range h.buckets {
			if h.buckets[i].Load() == 1 {
				return i
			}
		}
		t.Fatalf("no bucket recorded %dns", ns)
		return -1
	}
	if got := bucketOf(0); got != 0 {
		t.Errorf("0ns in bucket %d, want 0", got)
	}
	if got := bucketOf(1); got != 0 {
		t.Errorf("1ns in bucket %d, want 0", got)
	}
	if got := bucketOf(2); got != 1 {
		t.Errorf("2ns in bucket %d, want 1", got)
	}
	for i := 2; i < 20; i++ {
		lo := int64(1) << i
		if got := bucketOf(lo - 1); got != i-1 {
			t.Errorf("%dns (2^%d-1) in bucket %d, want %d", lo-1, i, got, i-1)
		}
		if got := bucketOf(lo); got != i {
			t.Errorf("%dns (2^%d) in bucket %d, want %d", lo, i, got, i)
		}
	}
}

// TestHistQuantileUpperBound: Quantile must return an inclusive upper
// bound for the bucket holding the sample.
func TestHistQuantileUpperBound(t *testing.T) {
	var h Hist
	h.Observe(1) // bucket 0, top edge 2
	if q := h.Quantile(1); q < 1 || q > 2 {
		t.Errorf("Quantile(1) after Observe(1ns) = %v, want in [1,2]", q)
	}
	var h2 Hist
	h2.Observe(3) // bucket 1, top edge 4
	if q := h2.Quantile(1); q < 3 || q > 4 {
		t.Errorf("Quantile(1) after Observe(3ns) = %v, want in [3,4]", q)
	}
}

// TestHistQuantileWithinObserved: a quantile is a bucket's top edge
// clamped to [min, max] of the samples, for the live Hist and for its
// snapshot alike — a report never prints a p99 above its max.
func TestHistQuantileWithinObserved(t *testing.T) {
	cases := []struct {
		name    string
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{"one sample under its bucket edge", []time.Duration{15400 * time.Microsecond}, 0.99, 15400 * time.Microsecond},
		{"3ns, edge 4ns", []time.Duration{3}, 1, 3},
		{"zero", []time.Duration{0}, 0.5, 0},
		{"p50 below max keeps the edge", []time.Duration{time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond, 100 * time.Microsecond}, 0.5, 4096},
		{"p99 on the max sample", []time.Duration{time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond, 100 * time.Microsecond}, 0.99, 100 * time.Microsecond},
		{"overflow bucket", []time.Duration{time.Millisecond, 1000 * time.Hour}, 1, 1000 * time.Hour},
	}
	for _, tc := range cases {
		var h Hist
		lo, hi := tc.samples[0], tc.samples[0]
		for _, d := range tc.samples {
			h.Observe(d)
			lo, hi = min(lo, d), max(hi, d)
		}
		got, snap := h.Quantile(tc.q), time.Duration(h.Snapshot().Quantile(tc.q))
		if got != tc.want || snap != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, snapshot %v; want %v", tc.name, tc.q, got, snap, tc.want)
		}
		if got < lo || got > hi {
			t.Errorf("%s: Quantile(%v) = %v outside observed [%v, %v]", tc.name, tc.q, got, lo, hi)
		}
	}
}

// TestHistQuantileOrder: quantiles are monotone in q and bounded by Max.
func TestHistQuantileOrder(t *testing.T) {
	var h Hist
	for _, d := range []time.Duration{
		3 * time.Microsecond, 5 * time.Microsecond, 8 * time.Microsecond,
		40 * time.Microsecond, 70 * time.Microsecond,
		300 * time.Microsecond, 2 * time.Millisecond,
		9 * time.Millisecond, 30 * time.Millisecond, 110 * time.Millisecond,
	} {
		h.Observe(d)
	}
	p50, p95, p99 := h.Percentiles()
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p99 > 2*h.Max() {
		t.Fatalf("p99=%v beyond bucket above max=%v", p99, h.Max())
	}
	// p50 of 10 samples ranks the 6th (300us) sample: its bucket top edge
	// is 524.288us.
	if p50 < 300*time.Microsecond || p50 > 525*time.Microsecond {
		t.Errorf("p50 = %v, want in [300us, 524.288us]", p50)
	}
	// p99 ranks the largest sample (110ms): the bucket above caps at
	// 134.217728ms.
	if p99 < 110*time.Millisecond || p99 > 135*time.Millisecond {
		t.Errorf("p99 = %v, want in [110ms, 134.3ms]", p99)
	}
}

// TestHistSummary: the serialized snapshot must agree with the live
// accessors, and an empty histogram summarizes to all zeros.
func TestHistSummary(t *testing.T) {
	var empty Hist
	if s := empty.Summary(); s != (HistSummary{}) {
		t.Errorf("empty Summary() = %+v, want zero", s)
	}
	var h Hist
	h.Observe(10 * time.Microsecond)
	h.Observe(20 * time.Microsecond)
	s := h.Summary()
	if s.Count != 2 {
		t.Errorf("Count = %d, want 2", s.Count)
	}
	if s.MeanNs != int64(15*time.Microsecond) {
		t.Errorf("MeanNs = %d, want 15000", s.MeanNs)
	}
	if s.MaxNs != int64(20*time.Microsecond) {
		t.Errorf("MaxNs = %d, want 20000", s.MaxNs)
	}
	if s.P50Ns != int64(h.Quantile(0.50)) || s.P95Ns != int64(h.Quantile(0.95)) ||
		s.P99Ns != int64(h.Quantile(0.99)) {
		t.Errorf("summary percentiles disagree with Quantile: %+v", s)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}
