package anc

import (
	"fmt"
	"math"
)

// RLSConfig configures a recursive-least-squares adaptive filter — the
// "enhanced filtering method known to converge faster" the paper points to
// for head mobility (Section 6). RLS converges in roughly one pass over
// the filter length regardless of the input spectrum, at O(taps²) cost per
// sample.
type RLSConfig struct {
	// Taps is the filter length.
	Taps int
	// Lambda is the exponential forgetting factor in (0, 1]; values just
	// below 1 (0.995–0.9999) track slowly varying channels.
	Lambda float64
	// Delta initializes the inverse correlation matrix as I/Delta; small
	// positive values (1e-2) start adaptation aggressively.
	Delta float64
}

// Validate checks the configuration.
func (c RLSConfig) Validate() error {
	if c.Taps <= 0 {
		return fmt.Errorf("anc: RLS taps must be positive, got %d", c.Taps)
	}
	if c.Lambda <= 0 || c.Lambda > 1 {
		return fmt.Errorf("anc: RLS lambda %g outside (0, 1]", c.Lambda)
	}
	if c.Delta <= 0 {
		return fmt.Errorf("anc: RLS delta %g must be positive", c.Delta)
	}
	return nil
}

// RLS is a recursive-least-squares transversal filter.
type RLS struct {
	cfg RLSConfig
	w   []float64   // weights, w[0] newest
	x   []float64   // input history, x[0] newest
	p   [][]float64 // inverse correlation matrix
	k   []float64   // gain vector (scratch)
	px  []float64   // P·x scratch
}

// NewRLS creates a zero-initialized RLS filter.
func NewRLS(cfg RLSConfig) (*RLS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Taps
	r := &RLS{
		cfg: cfg,
		w:   make([]float64, n),
		x:   make([]float64, n),
		k:   make([]float64, n),
		px:  make([]float64, n),
	}
	r.p = make([][]float64, n)
	for i := range r.p {
		r.p[i] = make([]float64, n)
		r.p[i][i] = 1 / cfg.Delta
	}
	return r, nil
}

// Push shifts a new input sample into the history.
func (r *RLS) Push(x float64) {
	copy(r.x[1:], r.x)
	r.x[0] = x
}

// Output computes the current filter output.
func (r *RLS) Output() float64 {
	var y float64
	for i, wi := range r.w {
		y += wi * r.x[i]
	}
	return y
}

// Adapt applies one RLS update with a-priori error e (caller convention:
// for system identification e = d − y).
func (r *RLS) Adapt(e float64) {
	n := r.cfg.Taps
	lambda := r.cfg.Lambda
	// px = P·x
	for i := 0; i < n; i++ {
		var acc float64
		row := r.p[i]
		for j := 0; j < n; j++ {
			acc += row[j] * r.x[j]
		}
		r.px[i] = acc
	}
	// denom = λ + xᵀ·P·x. For a positive-definite P the quadratic form is
	// non-negative; numerical asymmetry can push it negative, which would
	// flip the gain's sign and destroy the filter — clamp at λ.
	denom := lambda
	for i := 0; i < n; i++ {
		denom += r.x[i] * r.px[i]
	}
	if denom < lambda {
		denom = lambda
	}
	// k = P·x / denom
	for i := 0; i < n; i++ {
		r.k[i] = r.px[i] / denom
	}
	// w += k·e
	for i := 0; i < n; i++ {
		r.w[i] += r.k[i] * e
	}
	// P = (P − k·(P·x)ᵀ)/λ, keeping symmetry.
	invL := 1 / lambda
	var trace float64
	for i := 0; i < n; i++ {
		ki := r.k[i]
		row := r.p[i]
		for j := 0; j < n; j++ {
			row[j] = (row[j] - ki*r.px[j]) * invL
		}
		trace += row[i]
	}
	// Covariance wind-up guard: with λ < 1 and input that does not excite
	// every direction (colored noise), P grows as λ^{-t} along the
	// unexcited subspace and eventually overflows. Bound the trace at a
	// large multiple of its initial value, rescaling P when exceeded.
	maxTrace := 1e2 * float64(n) / r.cfg.Delta
	if trace > maxTrace {
		scale := maxTrace / trace
		for i := 0; i < n; i++ {
			row := r.p[i]
			for j := 0; j < n; j++ {
				row[j] *= scale
			}
		}
	}
	// Symmetrize to keep P positive definite under floating-point error.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := 0.5 * (r.p[i][j] + r.p[j][i])
			r.p[i][j] = m
			r.p[j][i] = m
		}
	}
}

// Step pushes x, predicts y, adapts toward d, and returns (y, e).
func (r *RLS) Step(x, d float64) (y, e float64) {
	r.Push(x)
	y = r.Output()
	e = d - y
	r.Adapt(e)
	return y, e
}

// Misalignment returns ||w − h||²/||h||² against a reference response.
func (r *RLS) Misalignment(h []float64) float64 {
	var num, den float64
	for k := range r.w {
		var hk float64
		if k < len(h) {
			hk = h[k]
		}
		d := r.w[k] - hk
		num += d * d
		den += hk * hk
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}
