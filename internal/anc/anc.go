// Package anc implements the classical adaptive-filtering machinery of
// active noise cancellation: LMS/NLMS and RLS weight adaptation and
// secondary-path estimation. The filtered-x canceller itself is the
// lookahead-aware LANC in package core, the paper's contribution; the
// conventional headphone (package headphone) is LANC with no non-causal
// taps.
package anc

import (
	"fmt"
	"math"
)

// LMSConfig configures an adaptive FIR filter.
type LMSConfig struct {
	// Taps is the filter length.
	Taps int
	// Mu is the adaptation step size (gradient-descent rate µ in
	// Equation 6 of the paper).
	Mu float64
	// Normalized selects NLMS: the step is divided by the reference
	// signal power in the filter window, making convergence insensitive
	// to input level.
	Normalized bool
	// Leak is an optional leakage factor in [0, 1); each update shrinks
	// the weights by (1 - Leak*Mu), bounding weight drift under
	// persistent bias. 0 disables leakage.
	Leak float64
}

// Validate checks the configuration.
func (c LMSConfig) Validate() error {
	if c.Taps <= 0 {
		return fmt.Errorf("anc: taps must be positive, got %d", c.Taps)
	}
	if c.Mu <= 0 {
		return fmt.Errorf("anc: mu must be positive, got %g", c.Mu)
	}
	if c.Leak < 0 || c.Leak >= 1 {
		return fmt.Errorf("anc: leak %g outside [0, 1)", c.Leak)
	}
	return nil
}

// AdaptiveFilter is a causal transversal adaptive filter with LMS/NLMS
// updates. It is the workhorse for both system identification (secondary
// path estimation) and the conventional-ANC baseline.
type AdaptiveFilter struct {
	cfg LMSConfig
	w   []float64 // weights, w[0] multiplies the newest sample
	x   []float64 // reference history, x[0] newest
	pow float64   // running power of the history window (for NLMS)
}

// NewAdaptiveFilter creates a zero-initialized adaptive filter.
func NewAdaptiveFilter(cfg LMSConfig) (*AdaptiveFilter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AdaptiveFilter{
		cfg: cfg,
		w:   make([]float64, cfg.Taps),
		x:   make([]float64, cfg.Taps),
	}, nil
}

// Push shifts a new reference sample into the filter history.
func (f *AdaptiveFilter) Push(x float64) {
	old := f.x[len(f.x)-1]
	copy(f.x[1:], f.x)
	f.x[0] = x
	f.pow += x*x - old*old
	if f.pow < 0 {
		f.pow = 0
	}
}

// Output computes the current filter output y(t) = Σ w[k] x(t-k).
func (f *AdaptiveFilter) Output() float64 {
	w, x := f.w, f.x
	if len(x) < len(w) {
		return 0
	}
	var y float64
	// Unrolled with one accumulator and sequential adds — bit-identical to
	// the rolled dot product, minus most loop overhead and bounds checks.
	k := 0
	for ; k+3 < len(w); k += 4 {
		y += w[k] * x[k]
		y += w[k+1] * x[k+1]
		y += w[k+2] * x[k+2]
		y += w[k+3] * x[k+3]
	}
	for ; k < len(w); k++ {
		y += w[k] * x[k]
	}
	return y
}

// Adapt applies one LMS update with error e: w[k] += µ' e x(t-k), where µ'
// is Mu (LMS) or Mu normalized by window power (NLMS). The caller defines
// the error sign convention; for system identification e = d - y.
func (f *AdaptiveFilter) Adapt(e float64) {
	mu := f.cfg.Mu
	if f.cfg.Normalized {
		mu /= f.pow + 1e-8
	}
	muE := mu * e
	w, x := f.w, f.x
	if len(x) < len(w) {
		return
	}
	if f.cfg.Leak > 0 {
		// The leak branch is hoisted out of the tap loop; per-tap arithmetic
		// is unchanged, so the weights stay bit-identical.
		leak := 1 - f.cfg.Leak*f.cfg.Mu
		k := 0
		for ; k+3 < len(w); k += 4 {
			w[k] = w[k]*leak + muE*x[k]
			w[k+1] = w[k+1]*leak + muE*x[k+1]
			w[k+2] = w[k+2]*leak + muE*x[k+2]
			w[k+3] = w[k+3]*leak + muE*x[k+3]
		}
		for ; k < len(w); k++ {
			w[k] = w[k]*leak + muE*x[k]
		}
		return
	}
	k := 0
	for ; k+3 < len(w); k += 4 {
		w[k] += muE * x[k]
		w[k+1] += muE * x[k+1]
		w[k+2] += muE * x[k+2]
		w[k+3] += muE * x[k+3]
	}
	for ; k < len(w); k++ {
		w[k] += muE * x[k]
	}
}

// Step pushes x, computes the prediction y, adapts toward desired d, and
// returns (y, e) with e = d - y. This is the classic system-identification
// iteration.
func (f *AdaptiveFilter) Step(x, d float64) (y, e float64) {
	f.Push(x)
	y = f.Output()
	e = d - y
	f.Adapt(e)
	return y, e
}

// Weights returns a copy of the current weights.
func (f *AdaptiveFilter) Weights() []float64 {
	out := make([]float64, len(f.w))
	copy(out, f.w)
	return out
}

// SetWeights overwrites the filter weights (used when loading a cached
// profile filter). The length must match the configured tap count.
func (f *AdaptiveFilter) SetWeights(w []float64) error {
	if len(w) != len(f.w) {
		return fmt.Errorf("anc: weight length %d != taps %d", len(w), len(f.w))
	}
	copy(f.w, w)
	return nil
}

// Reset zeroes weights and history.
func (f *AdaptiveFilter) Reset() {
	for i := range f.w {
		f.w[i] = 0
	}
	for i := range f.x {
		f.x[i] = 0
	}
	f.pow = 0
}

// Misalignment returns the normalized weight error ||w - h||² / ||h||²
// against a reference impulse response h (zero-padded or truncated to the
// filter length). It is the standard convergence metric for adaptive
// filters.
func (f *AdaptiveFilter) Misalignment(h []float64) float64 {
	var num, den float64
	for k := range f.w {
		var hk float64
		if k < len(h) {
			hk = h[k]
		}
		d := f.w[k] - hk
		num += d * d
		den += hk * hk
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}
