package obs

import (
	"math/bits"

	"xcontainers/internal/cycles"
)

// histSub is the number of sub-buckets per power of two; 16 gives
// ≈6% worst-case quantile resolution, plenty for p50/p95/p99 shape.
const histSub = 16

// Histogram is a log-bucketed latency histogram over cycle counts.
// Buckets are geometric (histSub per octave), so one fixed-size array
// covers nanoseconds to hours with bounded relative error, and
// observation order never affects the quantiles — a determinism
// requirement for golden-tested reports.
type Histogram struct {
	counts [64 * histSub]uint64
	n      uint64
	sum    float64
	max    cycles.Cycles
	hi     int // highest non-empty bucket; quantile scans stop here
}

func bucketOf(v cycles.Cycles) int {
	u := uint64(v)
	if u < histSub {
		return int(u) // exact buckets for tiny values
	}
	exp := bits.Len64(u) - 1
	frac := (u >> (uint(exp) - 4)) & (histSub - 1)
	return exp*histSub + int(frac)
}

// bucketCeil returns the largest value mapping to bucket b — the
// conservative representative Quantile reports.
func bucketCeil(b int) cycles.Cycles {
	if b < histSub {
		return cycles.Cycles(b)
	}
	exp := uint(b / histSub)
	frac := uint64(b % histSub)
	lo := (uint64(histSub) + frac) << (exp - 4)
	return cycles.Cycles(lo + 1<<(exp-4) - 1)
}

// Observe records one sample.
func (h *Histogram) Observe(v cycles.Cycles) {
	b := bucketOf(v)
	h.counts[b]++
	if b > h.hi {
		h.hi = b
	}
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact sample mean in cycles (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// MeanMicros returns the exact sample mean in virtual microseconds.
func (h *Histogram) MeanMicros() float64 {
	return h.Mean() / (cycles.Hz / 1e6)
}

// Max returns the largest sample observed.
func (h *Histogram) Max() cycles.Cycles { return h.max }

// Reset discards every sample, returning the histogram to its zero
// state without releasing its storage — the control-window churn path:
// a fleet that resets one histogram per window allocates nothing, where
// replacing it would retire 8 KiB of counts per tick to the collector.
func (h *Histogram) Reset() {
	clear(h.counts[:h.hi+1])
	h.n = 0
	h.sum = 0
	h.max = 0
	h.hi = 0
}

// Merge folds other's samples into h bucket-wise. Because buckets are
// fixed and counts add, Merge is commutative and associative, and a
// merged histogram reports exactly the statistics it would have had if
// every sample had been observed directly — the property that lets
// per-route and per-shard histograms roll up into fleet percentiles
// without re-observing, and lets Sampler.Absorb fold a shard's window
// into the central one deterministically.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	for b, c := range other.counts[:other.hi+1] {
		h.counts[b] += c
	}
	if other.hi > h.hi {
		h.hi = other.hi
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) with
// the bucket resolution's relative error. The exact maximum is
// returned for quantiles that land in the top bucket.
func (h *Histogram) Quantile(q float64) cycles.Cycles {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target < 1 {
		target = 1
	}
	if target > h.n {
		return h.max
	}
	// The answer is the lowest bucket whose running count reaches
	// target. Tail quantiles (hedge delays, p95/p99) find it sooner
	// scanning down from the top: bucket b qualifies once the samples
	// at or above it outnumber the n - target that may lie beyond.
	b := 0
	if target <= h.n/2 {
		var cum uint64
		for cum += h.counts[b]; cum < target; cum += h.counts[b] {
			b++
		}
	} else {
		b = h.hi
		for above := h.counts[b]; above <= h.n-target; above += h.counts[b] {
			b--
		}
	}
	return min(bucketCeil(b), h.max)
}
