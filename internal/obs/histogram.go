package obs

import "sync/atomic"

// Bucket layout shared by every histogram, so snapshots are comparable
// across metrics and across runs. Bounds are inclusive upper bounds; one
// implicit +Inf bucket follows the last bound.
var (
	// DurationBounds buckets latencies in nanoseconds: 1µs, 10µs, 100µs,
	// 1ms, 10ms, 100ms, 1s, +Inf.
	DurationBounds = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000}
	// CountBounds buckets cardinalities (fan-out, generation lag):
	// 0, 1, 2, 4, 8, 16, 64, 256, 1024, +Inf.
	CountBounds = []int64{0, 1, 2, 4, 8, 16, 64, 256, 1024}
	// HTTPDurationBounds buckets request latencies in nanoseconds with
	// finer steps than the decade-wide DurationBounds, so the serving
	// tier's p99 (interpolated from the buckets) is honest in
	// the sub-100ms range where HTTP SLOs live: 50µs, 100µs, 250µs,
	// 500µs, 1ms, 2.5ms, 5ms, 10ms, 25ms, 50ms, 100ms, 250ms, 1s, 10s,
	// +Inf.
	HTTPDurationBounds = []int64{
		50_000, 100_000, 250_000, 500_000,
		1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
		100_000_000, 250_000_000, 1_000_000_000, 10_000_000_000,
	}
)

const (
	// nStripes spreads concurrent observers across cachelines. Must be a
	// power of two.
	nStripes = 8
	// maxBuckets bounds the per-stripe bucket array (len(bounds)+1 slots
	// used). Both bound sets above fit.
	maxBuckets = 16
)

// Histogram is a fixed-bound, striped histogram. Observations pick a
// stripe by mixing the observed value (latencies and cardinalities have
// effectively random low bits), so concurrent observers rarely contend
// on one cacheline; reads sum the stripes without taking any lock.
//
// Write ordering (bucket, then sum, then count) and read ordering (count
// first) are chosen so a concurrent snapshot can never observe
// count > Σbuckets: a reader that sees an incremented count is
// guaranteed to see the matching bucket increment too. After writers
// quiesce, count == Σbuckets exactly. The stress suite asserts both.
//
// Registry initializes its histograms; the zero value drops every
// observation into the first bucket.
type Histogram struct {
	bounds  []int64
	stripes [nStripes]stripe
}

// stripe is one shard of a histogram, padded to its own cachelines.
type stripe struct {
	count  atomic.Int64
	sum    atomic.Int64
	bucket [maxBuckets]atomic.Int64
	_      [64]byte
}

// init sets the histogram's inclusive upper bounds (ascending; at most
// maxBuckets-1 entries).
func (h *Histogram) init(bounds []int64) {
	if len(bounds) >= maxBuckets {
		panic("obs: too many histogram bounds")
	}
	h.bounds = bounds
}

// mix is splitmix64's finalizer: a cheap stateless value scrambler used
// for stripe selection.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	s := &h.stripes[mix(uint64(v))&(nStripes-1)]
	s.bucket[h.bucketIdx(v)].Add(1)
	s.sum.Add(v)
	s.count.Add(1)
}

// bucketIdx returns the index of the bucket v falls into.
func (h *Histogram) bucketIdx(v int64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds) // +Inf bucket
}

// HistogramStat is a point-in-time copy of a histogram.
type HistogramStat struct {
	// Count and Sum aggregate every observation.
	Count, Sum int64
	// Bounds are the inclusive upper bounds; Buckets has len(Bounds)+1
	// entries, the last being the +Inf bucket.
	Bounds  []int64
	Buckets []int64
}

// Stat captures the histogram. Count is read before the buckets in each
// stripe, so under concurrent writers Count <= ΣBuckets; after writers
// quiesce the two are equal.
func (h *Histogram) Stat() HistogramStat {
	st := HistogramStat{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.bounds)+1),
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		st.Count += s.count.Load()
		st.Sum += s.sum.Load()
		for b := range st.Buckets {
			st.Buckets[b] += s.bucket[b].Load()
		}
	}
	return st
}

// Mean returns the average observed value (0 when empty).
func (st HistogramStat) Mean() float64 {
	if st.Count == 0 {
		return 0
	}
	return float64(st.Sum) / float64(st.Count)
}

// Sub returns the difference of two stats of the same histogram
// (bucket-wise; used for before/after deltas). Two shapes of prev are
// handled explicitly:
//
//   - A zero-value prev (nil Bounds and Buckets — e.g. the stat of a
//     metric absent from an older Snapshot) subtracts nothing: the
//     result equals st, bucket for bucket.
//   - A prev whose bucket shape differs from st's (a Snapshot taken
//     from a registry with different bounds) cannot be subtracted
//     bucket-wise; Sub subtracts Count and Sum only and keeps st's raw
//     buckets, leaving the caller a self-consistent stat of st's shape
//     rather than a silent partial subtraction.
//
// Pinned by TestHistogramStatSubShapes.
func (st HistogramStat) Sub(prev HistogramStat) HistogramStat {
	out := HistogramStat{
		Count:  st.Count - prev.Count,
		Sum:    st.Sum - prev.Sum,
		Bounds: st.Bounds,
	}
	out.Buckets = append([]int64(nil), st.Buckets...)
	if len(prev.Buckets) == 0 {
		return out // zero-value prev: nothing to subtract
	}
	if !sameBounds(st.Bounds, prev.Bounds) || len(st.Buckets) != len(prev.Buckets) {
		return out // shape mismatch: bucket-wise subtraction is meaningless
	}
	for i := range out.Buckets {
		out.Buckets[i] -= prev.Buckets[i]
	}
	return out
}

// sameBounds reports whether two bound sets describe the same bucket
// layout.
func sameBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
