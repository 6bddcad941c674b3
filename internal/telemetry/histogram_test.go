package telemetry

import (
	"math"
	"testing"
)

// TestHistogramBucketEdges pins the exact bucket membership of values on
// and around the precomputed edges: bucket i covers [edge[i], edge[i+1]),
// with dedicated underflow/overflow slots. An exact binary search (not
// float log math) decides membership, so on-edge values must land exactly.
func TestHistogramBucketEdges(t *testing.T) {
	opts := HistogramOpts{Lo: 1, Ratio: 2, Buckets: 4} // edges 1 2 4 8 16
	cases := []struct {
		name string
		v    float64
		slot int // index into Counts: 0 underflow ... 5 overflow
	}{
		{"negative", -3, 0},
		{"zero", 0, 0},
		{"nan", math.NaN(), 0},
		{"below_lo", 0.999, 0},
		{"at_lo", 1, 1},
		{"mid_first", 1.5, 1},
		{"at_second_edge", 2, 2},
		{"just_below_second_edge", math.Nextafter(2, 0), 1},
		{"mid_third", 5, 3},
		{"at_last_finite_edge", 8, 4},
		{"just_below_overflow", math.Nextafter(16, 0), 4},
		{"at_overflow_edge", 16, 5},
		{"inf", math.Inf(1), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(opts)
			h.Observe(tc.v)
			s := h.Snapshot()
			if len(s.Counts) != opts.Buckets+2 {
				t.Fatalf("got %d count slots, want %d", len(s.Counts), opts.Buckets+2)
			}
			for i, c := range s.Counts {
				want := uint64(0)
				if i == tc.slot {
					want = 1
				}
				if c != want {
					t.Errorf("Observe(%g): slot %d = %d, want %d", tc.v, i, c, want)
				}
			}
		})
	}
}

// TestHistogramEdgesExact checks the edge layout is the pure geometric
// sequence Lo·Ratio^i computed by repeated multiplication.
func TestHistogramEdgesExact(t *testing.T) {
	h := NewHistogram(HistogramOpts{Lo: 1e-4, Ratio: 10, Buckets: 6})
	want := []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}
	got := h.Edges()
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	e := 1e-4
	for i := range got {
		if got[i] != e {
			t.Errorf("edge[%d] = %g, want %g (repeated multiplication)", i, got[i], e)
		}
		if math.Abs(got[i]-want[i]) > want[i]*1e-12 {
			t.Errorf("edge[%d] = %g, far from nominal %g", i, got[i], want[i])
		}
		e *= 10
	}
}

// TestHistogramInvalidOptsClamped: construction never fails; bad layouts
// fall back to the defaults.
func TestHistogramInvalidOptsClamped(t *testing.T) {
	def := DefaultHistogramOpts()
	for _, opts := range []HistogramOpts{
		{},
		{Lo: -1, Ratio: 0.5, Buckets: -3},
		{Lo: math.NaN(), Ratio: math.NaN(), Buckets: 0},
	} {
		h := NewHistogram(opts)
		if h.opts != def {
			t.Errorf("NewHistogram(%+v) kept opts %+v, want defaults %+v", opts, h.opts, def)
		}
	}
}

// TestHistogramSumSkipsNaN: NaN counts as an (underflow) observation but
// must not poison the running sum.
func TestHistogramSumSkipsNaN(t *testing.T) {
	h := NewHistogram(DefaultHistogramOpts())
	h.Observe(1.0)
	h.Observe(math.NaN())
	h.Observe(2.0)
	if got := h.Sum(); got != 3.0 {
		t.Errorf("Sum = %g, want 3 (NaN excluded)", got)
	}
	if got := h.Snapshot().Count; got != 3 {
		t.Errorf("Count = %d, want 3 (NaN still counted)", got)
	}
}

// TestHistogramMergeSameLayout: same-layout merge is exact bucket addition.
func TestHistogramMergeSameLayout(t *testing.T) {
	opts := HistogramOpts{Lo: 1, Ratio: 2, Buckets: 4}
	a, b := NewHistogram(opts), NewHistogram(opts)
	for _, v := range []float64{0.5, 1, 3, 100} {
		a.Observe(v)
	}
	for _, v := range []float64{1, 5} {
		b.Observe(v)
	}
	a.merge(b)
	s := a.Snapshot()
	if s.Count != 6 {
		t.Fatalf("merged count %d, want 6", s.Count)
	}
	if s.Sum != 0.5+1+3+100+1+5 {
		t.Errorf("merged sum %g", s.Sum)
	}
	// slots: underflow, [1,2), [2,4), [4,8), [8,16), overflow
	wantCounts := []uint64{1, 2, 1, 1, 0, 1}
	for i, c := range s.Counts {
		if c != wantCounts[i] {
			t.Errorf("slot %d = %d, want %d", i, c, wantCounts[i])
		}
	}
}

// TestHistogramMergeLayoutMismatch: a mismatched layout folds through
// midpoints instead of silently dropping observations.
func TestHistogramMergeLayoutMismatch(t *testing.T) {
	a := NewHistogram(HistogramOpts{Lo: 1, Ratio: 2, Buckets: 8})
	b := NewHistogram(HistogramOpts{Lo: 1, Ratio: 4, Buckets: 3})
	b.Observe(2)
	b.Observe(100)
	a.merge(b)
	if got := a.Snapshot().Count; got != 2 {
		t.Errorf("mismatched merge lost observations: count %d, want 2", got)
	}
}

// TestHistogramQuantile sanity-checks the midpoint estimator on a known
// distribution.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(HistogramOpts{Lo: 1, Ratio: 2, Buckets: 10})
	for i := 0; i < 100; i++ {
		h.Observe(3) // bucket [2,4)
	}
	h.Observe(500) // bucket [256, 512)
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 != 3 {
		t.Errorf("p50 = %g, want midpoint 3", p50)
	}
	if p100 := s.Quantile(1); p100 < 256 {
		t.Errorf("p100 = %g, want the top occupied bucket", p100)
	}
	if empty := (HistogramSnapshot{}).Quantile(0.5); empty != 0 {
		t.Errorf("empty quantile = %g, want 0", empty)
	}
}
