// Package metrics provides the measurement toolkit shared by the simulator,
// the Zhuge datapath and the experiment harness: streaming log-bucketed
// histograms, time-windowed min/max/rate filters, and time-series helpers
// for the tail statistics the paper reports (CCDFs, fraction-above-threshold,
// per-second frame rates, degradation durations).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// Histogram is a streaming histogram of durations with logarithmic buckets.
// Buckets grow by a fixed ratio so relative error is bounded (~2.5% with the
// default 128 buckets per decade is overkill; we use growth 1.02 ≈ 2%).
// The zero value is not usable; call NewHistogram.
type Histogram struct {
	min     time.Duration // lower bound of bucket 0
	growth  float64
	logG    float64
	table   *bucketTable
	buckets []uint64
	count   uint64
	sum     time.Duration
	maxSeen time.Duration
	minSeen time.Duration
	zeros   uint64 // values <= min
}

// NewHistogram returns a histogram covering [1µs, ~30min] with ~2% relative
// bucket error, suitable for packet and frame delays.
func NewHistogram() *Histogram {
	return NewHistogramRange(time.Microsecond, 1.02, 1200)
}

// NewHistogramRange returns a histogram whose bucket i covers
// [min*growth^i, min*growth^(i+1)). Values below min land in a dedicated
// underflow bucket; values above the top land in the last bucket.
func NewHistogramRange(min time.Duration, growth float64, buckets int) *Histogram {
	if min <= 0 || growth <= 1 || buckets < 1 {
		panic("metrics: invalid histogram parameters")
	}
	h := &Histogram{
		min:     min,
		growth:  growth,
		logG:    math.Log(growth),
		buckets: make([]uint64, buckets),
		minSeen: math.MaxInt64,
	}
	key := [3]float64{float64(min), growth, float64(buckets)}
	t, ok := tables.Load(key)
	if !ok {
		t, _ = tables.LoadOrStore(key, newBucketTable(h))
	}
	h.table = t.(*bucketTable)
	return h
}

// bucketTable maps a duration to its bucket without a logarithm. first[i]
// is the least duration the formula int(math.Log(d/min)/logG) puts in
// bucket i or above, found by bisecting the formula itself, so a lookup
// reproduces it exactly. cell holds, for the durations that share a bit
// length and the 7 bits below the leading one, the bucket of the least of
// them; a cell is at most 1/128 wide, so at growth 1.02 a lookup steps up
// past at most one bucket start.
type bucketTable struct {
	first []time.Duration
	cell  [64 << 7]int32
}

var tables sync.Map // one *bucketTable per parameter set, never written once stored

func newBucketTable(h *Histogram) *bucketTable {
	formula := func(d time.Duration) int { return int(math.Log(float64(d)/float64(h.min)) / h.logG) }
	t := &bucketTable{first: make([]time.Duration, len(h.buckets))}
	lo := h.min
	for i := range t.first {
		// Bucket i starts less than lo*growth past bucket i-1's start, lo.
		span := int(float64(lo) * h.growth)
		lo += time.Duration(sort.Search(span, func(k int) bool { return formula(lo+time.Duration(k)) >= i }))
		t.first[i] = lo
	}
	for c := range t.cell {
		least := time.Duration(c)
		if l := c >> 7; l > 8 {
			least = time.Duration(128|c&127) << (l - 8)
		}
		t.cell[c] = int32(max(sort.Search(len(t.first), func(i int) bool { return t.first[i] > least })-1, 0))
	}
	return t
}

// clamp keeps bucket-interpolated estimates inside the exact observed range.
func (h *Histogram) clamp(d time.Duration) time.Duration {
	if d < h.minSeen {
		return h.minSeen
	}
	if d > h.maxSeen {
		return h.maxSeen
	}
	return d
}

// bucketIndex returns the bucket of d >= h.min: the formula
// int(math.Log(d/min)/logG), capped at the last bucket, read from the table.
func (h *Histogram) bucketIndex(d time.Duration) int {
	c := int(d) // a duration below 256 is its own cell
	if l := bits.Len64(uint64(d)); l > 8 {
		c = l<<7 | int(d>>(l-8))&127
	}
	first := h.table.first
	i := int(h.table.cell[c])
	for i+1 < len(first) && first[i+1] <= d {
		i++
	}
	return i
}

// Add records one observation. Negative values are clamped to zero.
func (h *Histogram) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count++
	h.sum += d
	if d > h.maxSeen {
		h.maxSeen = d
	}
	if d < h.minSeen {
		h.minSeen = d
	}
	if d < h.min {
		h.zeros++
		return
	}
	h.buckets[h.bucketIndex(d)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of all observations.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest observation (exact, not bucketed).
func (h *Histogram) Max() time.Duration { return h.maxSeen }

// Min returns the smallest observation (exact, not bucketed), or 0 if empty.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.minSeen
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.minSeen
	}
	if q >= 1 {
		return h.maxSeen
	}
	target := uint64(q * float64(h.count))
	if target < h.zeros {
		return h.min / 2
	}
	cum := h.zeros
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			lo := float64(h.min) * math.Pow(h.growth, float64(i))
			hi := lo * h.growth
			return h.clamp(time.Duration((lo + hi) / 2))
		}
	}
	return h.maxSeen
}

// FractionAbove returns the fraction of observations strictly greater than d.
// This is the paper's headline tail metric (e.g. P(RTT > 200ms)).
func (h *Histogram) FractionAbove(d time.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	if d < h.min {
		return float64(h.count-h.zeros) / float64(h.count)
	}
	idx := h.bucketIndex(d)
	var above uint64
	for i := idx + 1; i < len(h.buckets); i++ {
		above += h.buckets[i]
	}
	// Within the boundary bucket, assume a uniform split.
	lo := float64(h.min) * math.Pow(h.growth, float64(idx))
	hi := lo * h.growth
	frac := (hi - float64(d)) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	above += uint64(frac * float64(h.buckets[idx]))
	return float64(above) / float64(h.count)
}

// CCDFPoint is one (value, fraction-of-samples-greater) pair.
type CCDFPoint struct {
	Value    time.Duration
	Fraction float64
}

// CCDF returns complementary-CDF points at each non-empty bucket boundary,
// the log-scaled tail curves plotted in Figures 2 and 13.
func (h *Histogram) CCDF() []CCDFPoint {
	if h.count == 0 {
		return nil
	}
	var pts []CCDFPoint
	remaining := h.count - h.zeros
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := time.Duration(float64(h.min) * math.Pow(h.growth, float64(i)))
		pts = append(pts, CCDFPoint{Value: lo, Fraction: float64(remaining) / float64(h.count)})
		remaining -= c
	}
	return pts
}

// String summarises the distribution for logs and experiment tables.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		h.count, h.Mean().Round(time.Microsecond),
		h.Quantile(0.5).Round(time.Microsecond),
		h.Quantile(0.9).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.maxSeen.Round(time.Microsecond))
}
