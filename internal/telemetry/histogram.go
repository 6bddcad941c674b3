package telemetry

import (
	"math"
	"sync/atomic"
)

// HistogramOpts fixes a histogram's log-spaced bucket layout: Buckets
// finite buckets with edges Lo·Ratio^i, plus an underflow bucket below Lo
// and an overflow bucket at or above the last edge. Bucket i covers
// [edge[i], edge[i+1]).
type HistogramOpts struct {
	// Lo is the lower edge of the first finite bucket (must be > 0).
	Lo float64
	// Ratio is the geometric growth factor between edges (must be > 1).
	Ratio float64
	// Buckets is the number of finite buckets (must be >= 1).
	Buckets int
}

// DefaultHistogramOpts spans eight decades from 1e-4 with ~3 buckets per
// decade — a broad general-purpose layout for positive magnitudes.
func DefaultHistogramOpts() HistogramOpts {
	return HistogramOpts{Lo: 1e-4, Ratio: 2, Buckets: 27}
}

// Histogram counts observations into fixed log-spaced buckets. Observe is
// allocation-free and uses an exact binary search over precomputed edges,
// so bucket membership does not depend on floating-point log rounding.
// Negative and NaN observations land in the underflow bucket (the
// pipeline's series are magnitudes; a negative value is a bug signal, not
// a measurement, and must not corrupt the layout).
type Histogram struct {
	opts  HistogramOpts
	edges []float64 // len = Buckets+1, edges[i] = Lo * Ratio^i
	// counts[0] is underflow, counts[1..Buckets] the finite buckets,
	// counts[Buckets+1] overflow.
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// NewHistogram builds a histogram, clamping invalid options to the
// defaults (metrics construction must not fail mid-pipeline).
func NewHistogram(opts HistogramOpts) *Histogram {
	def := DefaultHistogramOpts()
	if !(opts.Lo > 0) {
		opts.Lo = def.Lo
	}
	if !(opts.Ratio > 1) {
		opts.Ratio = def.Ratio
	}
	if opts.Buckets < 1 {
		opts.Buckets = def.Buckets
	}
	h := &Histogram{
		opts:   opts,
		edges:  make([]float64, opts.Buckets+1),
		counts: make([]atomic.Uint64, opts.Buckets+2),
	}
	e := opts.Lo
	for i := range h.edges {
		h.edges[i] = e
		e *= opts.Ratio
	}
	return h
}

// Edges returns a copy of the finite bucket edges (len Buckets+1); bucket
// i covers [Edges[i], Edges[i+1]).
func (h *Histogram) Edges() []float64 {
	out := make([]float64, len(h.edges))
	copy(out, h.edges)
	return out
}

// bucketIndex maps a value to its counts slot: 0 for underflow (v <
// edges[0], negative, or NaN), len(counts)-1 for overflow.
func (h *Histogram) bucketIndex(v float64) int {
	if !(v >= h.edges[0]) { // catches v < Lo, negatives, and NaN
		return 0
	}
	if v >= h.edges[len(h.edges)-1] {
		return len(h.counts) - 1
	}
	// Binary search: find the last edge <= v.
	lo, hi := 0, len(h.edges)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if h.edges[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	if math.IsNaN(v) {
		return // keep the running sum finite
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all finite observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// merge adds another histogram's counts into h. Layouts must match (they
// do, by construction, when both came from the same registry name); on a
// layout mismatch the other histogram's observations are folded through
// Observe bucket-by-bucket midpoints to avoid silent loss.
func (h *Histogram) merge(o *Histogram) {
	if h.opts == o.opts {
		for i := range h.counts {
			h.counts[i].Add(o.counts[i].Load())
		}
		h.count.Add(o.count.Load())
		for {
			old := h.sumBits.Load()
			next := math.Float64bits(math.Float64frombits(old) + o.Sum())
			if h.sumBits.CompareAndSwap(old, next) {
				break
			}
		}
		return
	}
	snap := o.Snapshot()
	for i, c := range snap.Counts {
		mid := snap.midpoint(i)
		for n := uint64(0); n < c; n++ {
			h.Observe(mid)
		}
	}
}

// HistogramSnapshot is a copy of a histogram's state: Counts[0] is the
// underflow bucket, Counts[1..len-2] the finite buckets (bucket i+1 covers
// [Edges[i], Edges[i+1])), Counts[len-1] the overflow bucket.
type HistogramSnapshot struct {
	Edges  []float64 `json:"edges"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Edges:  h.Edges(),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// midpoint returns a representative value for counts slot i.
func (s HistogramSnapshot) midpoint(i int) float64 {
	switch {
	case i <= 0:
		return s.Edges[0] / 2
	case i >= len(s.Counts)-1:
		return s.Edges[len(s.Edges)-1]
	default:
		return (s.Edges[i-1] + s.Edges[i]) / 2
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) from bucket midpoints;
// 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count-1))
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum > rank {
			return s.midpoint(i)
		}
	}
	return s.midpoint(len(s.Counts) - 1)
}
