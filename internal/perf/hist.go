package perf

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets. Bucket i
// holds samples with latency in [2^i, 2^(i+1)) nanoseconds (bucket 0
// holds 0ns and 1ns); the last bucket absorbs everything longer.
const histBuckets = 40

// Hist is a lock-free power-of-two latency histogram. All methods are
// safe for concurrent use. It is shared by the pipeline stage stats, the
// codec server and the load generators, so every layer reports latency
// in the same buckets.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // total nanoseconds
	max     atomic.Int64
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Bucket index: 0 and 1 land in bucket 0, [2^i, 2^(i+1)) in bucket i.
	i := bits.Len64(uint64(ns))
	if i > 0 {
		i--
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Merge folds a point-in-time snapshot of o's samples into h. Both
// histograms stay live: Merge is safe to run concurrently with Observe
// on either side, and merging the per-worker histograms of a sharded
// producer into one report histogram yields exactly the same buckets,
// count and sum as observing every sample in one shared Hist (max is
// the max of the two).
func (h *Hist) Merge(o *Hist) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	m := o.max.Load()
	for {
		old := h.max.Load()
		if m <= old || h.max.CompareAndSwap(old, m) {
			break
		}
	}
}

// MergeSnapshot folds an exported snapshot into h — the wire-format
// counterpart of Merge, used by fleet aggregators that receive
// HistSnapshot buckets over HTTP rather than sharing memory with the
// producer. The snapshot's count is taken as the sum of its buckets (the
// invariant Snapshot guarantees), so a merged histogram stays
// self-consistent even if the snapshot's Count field disagrees.
func (h *Hist) MergeSnapshot(s HistSnapshot) {
	var n int64
	for i, c := range s.Buckets {
		if c != 0 {
			h.buckets[i].Add(c)
			n += c
		}
	}
	h.count.Add(n)
	h.sum.Add(s.SumNs)
	for {
		old := h.max.Load()
		if s.MaxNs <= old || h.max.CompareAndSwap(old, s.MaxNs) {
			break
		}
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() int64 { return h.count.Load() }

// Mean returns the mean observed latency.
func (h *Hist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observed latency.
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// top edge of the bucket containing it, clamped to the largest sample
// observed. Resolution is a factor of two, which is enough to tell
// microseconds from milliseconds in a report. The result lies within
// [min, max] of the samples: the edge is above every sample in its
// bucket, so it is never below the smallest one.
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			return time.Duration(min(BucketUpperNs(i), h.max.Load()))
		}
	}
	return h.Max()
}

// Percentiles returns the p50, p95 and p99 latency upper bounds — the
// three numbers load reports quote.
func (h *Hist) Percentiles() (p50, p95, p99 time.Duration) {
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

// HistSummary is a serializable point-in-time summary of a Hist, used by
// stats endpoints that export latency over the wire. All durations are
// nanoseconds.
type HistSummary struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P95Ns  int64 `json:"p95_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
}

// Summary snapshots the histogram into a HistSummary.
func (h *Hist) Summary() HistSummary {
	p50, p95, p99 := h.Percentiles()
	return HistSummary{
		Count:  h.Count(),
		MeanNs: int64(h.Mean()),
		P50Ns:  int64(p50),
		P95Ns:  int64(p95),
		P99Ns:  int64(p99),
		MaxNs:  int64(h.Max()),
	}
}

// String formats the summary the way reports print it.
func (s HistSummary) String() string {
	return fmt.Sprintf("mean=%v p50<%v p95<%v p99<%v max=%v",
		time.Duration(s.MeanNs).Round(time.Microsecond),
		time.Duration(s.P50Ns), time.Duration(s.P95Ns), time.Duration(s.P99Ns),
		time.Duration(s.MaxNs).Round(time.Microsecond))
}

// String summarizes the histogram as mean/p50/p99/max.
func (h *Hist) String() string {
	return fmt.Sprintf("mean=%v p50<%v p99<%v max=%v",
		h.Mean().Round(time.Microsecond), h.Quantile(0.50), h.Quantile(0.99),
		h.Max().Round(time.Microsecond))
}

// NumBuckets is the number of buckets a HistSnapshot exposes — one per
// power-of-two latency bucket of the live Hist.
const NumBuckets = histBuckets

// BucketUpperNs returns bucket i's exclusive upper bound in nanoseconds
// (2^(i+1)); the overflow bucket's bound is math.MaxInt64.
func BucketUpperNs(i int) int64 {
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << (i + 1)
}

// HistSnapshot is a point-in-time copy of a Hist with the raw buckets
// exposed, for exporters (Prometheus exposition, JSON metric dumps)
// that need more than the Summary percentiles. Count is computed as the
// sum of the copied buckets, so a snapshot is always self-consistent
// (the cumulative +Inf bucket equals Count) even when taken while
// observers are running; SumNs and MaxNs are read separately and may
// trail the buckets by in-flight observations.
type HistSnapshot struct {
	Count   int64
	SumNs   int64
	MaxNs   int64
	Buckets [NumBuckets]int64 // Buckets[i] holds samples in [2^i, 2^(i+1)) ns
}

// Snapshot copies the histogram's current state.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.SumNs = h.sum.Load()
	s.MaxNs = h.max.Load()
	return s
}

// MeanNs returns the snapshot's mean sample in nanoseconds.
func (s HistSnapshot) MeanNs() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNs / s.Count
}

// Quantile returns an upper bound in nanoseconds for the q-quantile
// (0 < q <= 1), with the same bucket-edge resolution and the same clamp
// to MaxNs as Hist.Quantile.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i := 0; i < NumBuckets; i++ {
		seen += s.Buckets[i]
		if seen > rank {
			return min(BucketUpperNs(i), s.MaxNs)
		}
	}
	return s.MaxNs
}
