package stats

import (
	"fmt"
	"testing"
)

// TestHistogramQuantileEmpty pins the empty-histogram contract: every
// quantile of zero observations is 0, live and snapshotted alike.
func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(5, 10, 20)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	r := NewRegistry()
	r.Histogram("h", 5, 10, 20)
	snap := r.Snapshot().Histograms["h"]
	if got := snap.Quantile(0.5); got != 0 {
		t.Fatalf("empty snap Quantile(0.5) = %d, want 0", got)
	}
}

// TestHistogramQuantileSingleSample: one observation lands in one bucket,
// so every quantile — including q=0, whose target clamps up to the first
// sample — reports that bucket's upper bound.
func TestHistogramQuantileSingleSample(t *testing.T) {
	h := NewHistogram(5, 10, 20)
	h.Observe(7) // bucket (5,10]
	for _, q := range []float64{0, 0.001, 0.5, 1} {
		if got := h.Quantile(q); got != 10 {
			t.Fatalf("single-sample Quantile(%v) = %d, want bucket bound 10", q, got)
		}
	}
}

// TestHistogramQuantileAllEqual: identical samples collapse to one bucket
// regardless of count, so the whole quantile curve is flat.
func TestHistogramQuantileAllEqual(t *testing.T) {
	h := NewHistogram(5, 10, 20)
	for i := 0; i < 1000; i++ {
		h.Observe(7)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.999, 1} {
		if got := h.Quantile(q); got != 10 {
			t.Fatalf("all-equal Quantile(%v) = %d, want 10", q, got)
		}
	}
}

// TestHistogramQuantileOverflowReportsMax: samples beyond the last bound
// fall in the +Inf bucket, whose quantile answer is the observed max, not
// a bound.
func TestHistogramQuantileOverflowReportsMax(t *testing.T) {
	h := NewHistogram(5, 10)
	h.Observe(7)
	h.Observe(9000)
	h.Observe(12345)
	// With 3 samples the median target is sample 2, the first overflow.
	if got := h.Quantile(0.5); got != 12345 {
		t.Fatalf("Quantile(0.5) = %d, want observed max 12345 (overflow bucket)", got)
	}
	if got := h.Quantile(1); got != 12345 {
		t.Fatalf("Quantile(1) = %d, want observed max 12345", got)
	}
	// Snapshot must mirror the overflow behaviour exactly.
	r := NewRegistry()
	hs := r.Histogram("h", 5, 10)
	hs.Observe(7)
	hs.Observe(9000)
	hs.Observe(12345)
	snap := r.Snapshot().Histograms["h"]
	for _, q := range []float64{0, 0.5, 1} {
		if snap.Quantile(q) != hs.Quantile(q) {
			t.Fatalf("snap Quantile(%v) = %d, live %d", q, snap.Quantile(q), hs.Quantile(q))
		}
	}
}

// shardSnapshots builds four differently-shaped worker snapshots, the
// inputs for the merge-order tests.
func shardSnapshots() []*Snapshot {
	shards := make([]*Snapshot, 4)
	for i := range shards {
		r := NewRegistry()
		r.Counter("reqs").Add(uint64(100 * (i + 1)))
		if i != 2 { // one shard never touches this counter
			r.Counter("errs").Add(uint64(i))
		}
		g := r.Gauge("occ")
		for j := 0; j <= i; j++ {
			g.Set(float64(i*10 + j))
		}
		h := r.Histogram("lat", 10, 100, 1000)
		for j := 0; j < 50*(i+1); j++ {
			h.Observe(uint64((i*37 + j*13) % 2000))
		}
		shards[i] = r.Snapshot()
	}
	return shards
}

// mergeInOrder merges the shards into a fresh snapshot following perm.
func mergeInOrder(t *testing.T, shards []*Snapshot, perm []int) Snapshot {
	t.Helper()
	var acc Snapshot
	for _, i := range perm {
		if err := acc.Merge(shards[i]); err != nil {
			t.Fatalf("merge shard %d: %v", i, err)
		}
	}
	return acc
}

// TestSnapshotMergeOrderInvariance merges four shards in several
// permutations and demands identical counters, histograms, and gauge
// aggregates. Gauge Cur is last-writer-wins by design and excluded.
func TestSnapshotMergeOrderInvariance(t *testing.T) {
	shards := shardSnapshots()
	ref := mergeInOrder(t, shards, []int{0, 1, 2, 3})
	perms := [][]int{
		{3, 2, 1, 0},
		{1, 3, 0, 2},
		{2, 0, 3, 1},
		{0, 2, 1, 3},
	}
	for _, perm := range perms {
		got := mergeInOrder(t, shards, perm)
		key := fmt.Sprint(perm)
		for name, want := range ref.Counters {
			if got.Counters[name] != want {
				t.Fatalf("%s: counter %s = %d, want %d", key, name, got.Counters[name], want)
			}
		}
		for name, want := range ref.Histograms {
			h := got.Histograms[name]
			if h.Total != want.Total || h.Sum != want.Sum || h.Max != want.Max {
				t.Fatalf("%s: histogram %s total/sum/max %d/%d/%d, want %d/%d/%d",
					key, name, h.Total, h.Sum, h.Max, want.Total, want.Sum, want.Max)
			}
			for i, c := range want.Counts {
				if h.Counts[i] != c {
					t.Fatalf("%s: histogram %s bucket %d = %d, want %d", key, name, i, h.Counts[i], c)
				}
			}
			if h.Quantile(0.5) != want.Quantile(0.5) || h.Quantile(0.99) != want.Quantile(0.99) {
				t.Fatalf("%s: histogram %s quantiles diverge", key, name)
			}
		}
		for name, want := range ref.Gauges {
			g := got.Gauges[name]
			if g.Min != want.Min || g.Max != want.Max || g.Sum != want.Sum || g.Samples != want.Samples {
				t.Fatalf("%s: gauge %s min/max/sum/samples %v/%v/%v/%d, want %v/%v/%v/%d",
					key, name, g.Min, g.Max, g.Sum, g.Samples, want.Min, want.Max, want.Sum, want.Samples)
			}
		}
	}
}

// TestDurationBoundsMedianWithin2_5x pins the shared duration buckets: a
// 1-2-5 series spanning 1µs..60s, whose bucketed median of a single
// duration never understates it and overstates it by at most 2.5x.
func TestDurationBoundsMedianWithin2_5x(t *testing.T) {
	b := DurationBounds
	if b[0] > 1e3 || b[len(b)-1] < 6e10 {
		t.Fatalf("DurationBounds %d..%d do not cover 1µs..60s", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if r := float64(b[i]) / float64(b[i-1]); r > 2.5 || r <= 1 {
			t.Fatalf("bound %d/%d ratio %.2f outside (1, 2.5]", b[i], b[i-1], r)
		}
	}
	for v := uint64(1e3); v <= 6e10; v = v*13/10 + 1 {
		h := NewHistogram(DurationBounds...)
		h.Observe(v)
		if med := h.Quantile(0.5); med < v || float64(med) > 2.5*float64(v) {
			t.Fatalf("median of %dns = %dns, want within [1x, 2.5x]", v, med)
		}
	}
}
