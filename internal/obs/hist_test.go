package obs

import (
	"math/rand/v2"
	"testing"

	"xcontainers/internal/cycles"
)

// sameHist compares every observable statistic of two histograms.
func sameHist(t *testing.T, label string, got, want *Histogram) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Errorf("%s: count %d, want %d", label, got.Count(), want.Count())
	}
	if got.Mean() != want.Mean() {
		t.Errorf("%s: mean %v, want %v", label, got.Mean(), want.Mean())
	}
	if got.Max() != want.Max() {
		t.Errorf("%s: max %v, want %v", label, got.Max(), want.Max())
	}
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Errorf("%s: q%.2f = %v, want %v", label, q, g, w)
		}
	}
}

// TestHistogramMergeEqualsUnion: merging two histograms must be
// indistinguishable from observing the union of their samples.
func TestHistogramMergeEqualsUnion(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 0))
	var a, b, union Histogram
	for i := 0; i < 5000; i++ {
		v := cycles.Cycles(r.Uint64() % 2_000_000)
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		union.Observe(v)
	}
	merged := a // value copy: Merge must not need a fresh receiver
	merged.Merge(&b)
	sameHist(t, "a+b vs union", &merged, &union)
}

// TestHistogramMergeCommutative: a.Merge(b) and b.Merge(a) agree on
// every statistic — the property that makes shard order irrelevant.
func TestHistogramMergeCommutative(t *testing.T) {
	r := rand.New(rand.NewPCG(77, 0))
	var a, b Histogram
	for i := 0; i < 1000; i++ {
		a.Observe(cycles.Cycles(r.Uint64() % 500_000))
		b.Observe(cycles.Cycles(r.Uint64() % 50_000_000))
	}
	ab, ba := a, b
	ab.Merge(&b)
	ba.Merge(&a)
	sameHist(t, "ab vs ba", &ab, &ba)
}

// TestHistogramMergeEmpty: merging an empty histogram (or nil) is a
// no-op in both directions, and empty+empty stays empty.
func TestHistogramMergeEmpty(t *testing.T) {
	var full, empty Histogram
	for i := cycles.Cycles(1); i <= 100; i++ {
		full.Observe(i * 1000)
	}
	want := full
	full.Merge(&empty)
	full.Merge(nil)
	sameHist(t, "full+empty", &full, &want)

	got := empty
	got.Merge(&full)
	sameHist(t, "empty+full", &got, &want)

	var e1, e2 Histogram
	e1.Merge(&e2)
	if e1.Count() != 0 || e1.Quantile(0.99) != 0 || e1.Max() != 0 {
		t.Errorf("empty+empty not empty: count %d", e1.Count())
	}
}

// TestHistogramMergeAssociative: (a+b)+c == a+(b+c).
func TestHistogramMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 0))
	var a, b, c Histogram
	for i := 0; i < 700; i++ {
		a.Observe(cycles.Cycles(r.Uint64() % 1000))
		b.Observe(cycles.Cycles(r.Uint64() % 1_000_000))
		c.Observe(cycles.Cycles(r.Uint64() % 1_000_000_000))
	}
	left := a
	left.Merge(&b)
	left.Merge(&c)
	bc := b
	bc.Merge(&c)
	right := a
	right.Merge(&bc)
	sameHist(t, "(a+b)+c vs a+(b+c)", &left, &right)
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(cycles.Cycles(i * 1000))
	}
	p50 := h.Quantile(0.50)
	p95 := h.Quantile(0.95)
	p99 := h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: %v %v %v", p50, p95, p99)
	}
	// Bucket resolution is 1/16 per octave: allow ~12% slack.
	check := func(name string, got cycles.Cycles, want float64) {
		if f := float64(got); f < 0.95*want || f > 1.15*want {
			t.Errorf("%s = %v, want ≈%v", name, got, want)
		}
	}
	check("p50", p50, 500_000)
	check("p95", p95, 950_000)
	check("p99", p99, 990_000)
	if h.Quantile(1) != h.Max() {
		t.Errorf("p100 = %v, want max %v", h.Quantile(1), h.Max())
	}
	if m := h.Mean(); m != 500_500 {
		t.Errorf("mean = %v, want exactly 500500", m)
	}
}

// TestHistogramQuantileScanDirection: Quantile scans down from the top
// for tail quantiles; every answer must equal the lowest bucket whose
// running count reaches the target, as a forward scan finds it.
func TestHistogramQuantileScanDirection(t *testing.T) {
	forward := func(h *Histogram, q float64) cycles.Cycles {
		target := max(uint64(q*float64(h.n)), 1)
		var cum uint64
		for b, c := range h.counts[:h.hi+1] {
			if cum += c; cum >= target {
				return min(bucketCeil(b), h.max)
			}
		}
		return h.max
	}
	r := rand.New(rand.NewPCG(5, 0))
	for _, n := range []int{1, 2, 3, 10, 101, 5000} {
		var h Histogram
		for i := 0; i < n; i++ {
			h.Observe(cycles.Cycles(r.Uint64() % (1 << (r.Uint64() % 30))))
		}
		for q := 0.0; q <= 1.0; q += 0.001 {
			if got, want := h.Quantile(q), forward(&h, q); got != want {
				t.Fatalf("n=%d q=%.3f: %v, forward scan gives %v", n, q, got, want)
			}
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

// TestHistogramHighBucketTracking pins Quantile's scan bound: samples
// confined to low buckets must still answer correctly, and a new
// high-bucket sample must extend the scan.
func TestHistogramHighBucketTracking(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	if p := h.Quantile(0.99); p != 5 {
		t.Errorf("p99 = %v, want 5", p)
	}
	h.Observe(1 << 40)
	if p := h.Quantile(1); p != 1<<40 {
		t.Errorf("p100 = %v, want the new max", p)
	}
}

// BenchmarkHistogramQuantile measures the quantile read path (hot in
// the cluster control loop, which reads p99 every window).
func BenchmarkHistogramQuantile(b *testing.B) {
	var h Histogram
	for i := 1; i <= 10_000; i++ {
		h.Observe(cycles.Cycles(i * 37))
	}
	b.ResetTimer()
	var sink cycles.Cycles
	for i := 0; i < b.N; i++ {
		sink += h.Quantile(0.99)
	}
	_ = sink
}
