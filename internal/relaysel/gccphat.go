// Package relaysel implements MUTE's automatic relay selection
// (Section 4.2): GCC-PHAT cross-correlation between the wirelessly
// forwarded sound and the locally heard sound determines whether a relay
// offers positive lookahead, and with multiple relays, which one offers the
// most. Repeating the correlation periodically to follow a moving source
// is the relay mesh's job (internal/mesh); this package is the primitive.
package relaysel

import (
	"fmt"
	"math"
	"math/cmplx"

	"mute/internal/dsp"
)

// Correlation is a GCC-PHAT result.
type Correlation struct {
	// LagSamples is the delay of the locally heard signal relative to the
	// forwarded signal at the correlation peak. Positive means the
	// forwarded copy leads (positive lookahead).
	LagSamples int
	// Peak is the peak correlation value in [0, 1]-ish (PHAT weighted).
	Peak float64
	// Lags and Values hold the full correlation function for plotting
	// (Figure 18); Values[i] corresponds to lag Lags[i].
	Lags   []int
	Values []float64
}

// phatFloorRel sets the PHAT whitening floor as a fraction of the
// strongest cross-power bin. Bins below it carry no usable phase — for a
// band-limited source that is every bin above the band edge.
const phatFloorRel = 1e-3

// Correlator computes GCC-PHAT correlations for a fixed window length with
// preallocated transform plans and scratch: the mesh supervisor reuses one
// Correlator across selection rounds, so the steady-state correlation path performs
// no allocation. The real-input signals go through the packed RFFT plan —
// half the butterflies of the full complex transform the per-call path
// previously paid for, per signal, per round.
type Correlator struct {
	n    int // window length
	m    int // transform length, NextPow2(2n)
	plan *dsp.RFFTPlan
	seg  []float64    // zero-padded window scratch
	spcF []complex128 // forwarded half spectrum
	spcL []complex128 // local half spectrum / PHAT cross-spectrum
	corr []float64    // inverse transform (correlation function)
}

// NewCorrelator builds a Correlator for correlation windows of exactly
// window samples.
func NewCorrelator(window int) (*Correlator, error) {
	if window < 2 {
		return nil, fmt.Errorf("relaysel: correlation window %d too short", window)
	}
	m := dsp.NextPow2(2 * window)
	plan := dsp.PlanRFFT(m)
	return &Correlator{
		n:    window,
		m:    m,
		plan: plan,
		seg:  make([]float64, m),
		spcF: make([]complex128, plan.Bins()),
		spcL: make([]complex128, plan.Bins()),
		corr: make([]float64, m),
	}, nil
}

// Correlate computes the PHAT-weighted cross-correlation into dst, reusing
// dst's Lags/Values storage when capacity allows. Steady-state calls with a
// reused dst allocate nothing.
func (c *Correlator) Correlate(dst *Correlation, forwarded, local []float64, maxLag int) error {
	n := len(forwarded)
	if n == 0 || len(local) != n {
		return fmt.Errorf("relaysel: signals must be equal non-zero length (got %d, %d)", n, len(local))
	}
	if n != c.n {
		return fmt.Errorf("relaysel: correlator window is %d samples, got %d", c.n, n)
	}
	if maxLag <= 0 || maxLag >= n/2 {
		return fmt.Errorf("relaysel: maxLag %d outside (0, %d)", maxLag, n/2)
	}
	copy(c.seg, forwarded)
	for i := n; i < c.m; i++ {
		c.seg[i] = 0
	}
	c.plan.Forward(c.spcF, c.seg)
	copy(c.seg, local)
	for i := n; i < c.m; i++ {
		c.seg[i] = 0
	}
	c.plan.Forward(c.spcL, c.seg)
	// Cross-power spectrum with PHAT weighting: keep phase only. Pure
	// PHAT gives every bin unit weight, which is catastrophic for
	// band-limited sources — bins above the band edge hold only window
	// leakage whose phase is garbage (and, both windows being cut from
	// the same room, garbage that correlates at lag zero). A spectral
	// floor relative to the strongest bin soft-gates them: bins well
	// inside the band keep ~unit weight, empty bins are weighted by
	// their (tiny) true magnitude instead of inflated to 1. The
	// conjugate-symmetric remainder is implied by the half-spectrum form.
	maxMag := 0.0
	for k, f := range c.spcF {
		x := c.spcL[k] * cmplx.Conj(f)
		c.spcL[k] = x
		if mag := cmplx.Abs(x); mag > maxMag {
			maxMag = mag
		}
	}
	floor := phatFloorRel * maxMag
	if floor < 1e-300 {
		floor = 1e-300
	}
	for k, x := range c.spcL {
		c.spcL[k] = x / complex(cmplx.Abs(x)+floor, 0)
	}
	c.plan.Inverse(c.corr, c.spcL)
	// corr[lag] for lag >= 0 at index lag; negative lags wrap to m-|lag|.
	dst.Lags = dst.Lags[:0]
	dst.Values = dst.Values[:0]
	dst.LagSamples = 0
	bestVal := math.Inf(-1)
	for lag := -maxLag; lag <= maxLag; lag++ {
		idx := lag
		if idx < 0 {
			idx += c.m
		}
		v := c.corr[idx]
		dst.Lags = append(dst.Lags, lag)
		dst.Values = append(dst.Values, v)
		if v > bestVal {
			bestVal = v
			dst.LagSamples = lag
		}
	}
	dst.Peak = bestVal
	return nil
}

// GCCPHAT computes the PHAT-weighted generalized cross-correlation between
// the forwarded reference signal and the local (error-mic) signal over lags
// in [-maxLag, maxLag]. Both signals must have equal length ≥ 2·maxLag.
// Callers correlating repeatedly should hold a Correlator instead.
func GCCPHAT(forwarded, local []float64, maxLag int) (*Correlation, error) {
	n := len(forwarded)
	if n == 0 || len(local) != n {
		return nil, fmt.Errorf("relaysel: signals must be equal non-zero length (got %d, %d)", n, len(local))
	}
	c, err := NewCorrelator(n)
	if err != nil {
		return nil, err
	}
	res := &Correlation{}
	if err := c.Correlate(res, forwarded, local, maxLag); err != nil {
		return nil, err
	}
	return res, nil
}

// RelayReport describes one relay's measured lookahead.
type RelayReport struct {
	// Index identifies the relay in the order passed to SelectRelay.
	Index int
	// LagSamples is the measured lookahead in samples (positive = leads).
	LagSamples int
	// Peak is the correlation peak strength.
	Peak float64
}

// Selection is the outcome of a relay-selection round.
type Selection struct {
	// Best is the chosen relay index, or -1 when no relay offers positive
	// lookahead (the paper's "no relay associated" case).
	Best int
	// Reports holds per-relay measurements sorted by descending lag.
	Reports []RelayReport
}

// SelectRelay correlates each relay's forwarded stream against the local
// signal and picks the relay with the largest positive lag (maximum
// lookahead), requiring at least minLead samples of lead and a peak of at
// least minPeak to guard against spurious correlation.
func SelectRelay(forwarded [][]float64, local []float64, maxLag, minLead int, minPeak float64) (*Selection, error) {
	if len(forwarded) == 0 {
		return nil, fmt.Errorf("relaysel: no relays")
	}
	c, err := NewCorrelator(len(local))
	if err != nil {
		return nil, err
	}
	sel := &Selection{}
	if err := c.SelectInto(sel, new(Correlation), forwarded, local, maxLag, minLead, minPeak); err != nil {
		return nil, err
	}
	return sel, nil
}

// SelectInto is SelectRelay running through the correlator's reusable
// scratch: one correlation round with a reused sel and scratch allocates
// nothing. Reports end up sorted by descending lag (stable on ties).
func (c *Correlator) SelectInto(sel *Selection, scratch *Correlation, forwarded [][]float64, local []float64, maxLag, minLead int, minPeak float64) error {
	if len(forwarded) == 0 {
		return fmt.Errorf("relaysel: no relays")
	}
	sel.Best = -1
	sel.Reports = sel.Reports[:0]
	for i, f := range forwarded {
		if err := c.Correlate(scratch, f, local, maxLag); err != nil {
			return fmt.Errorf("relaysel: relay %d: %w", i, err)
		}
		sel.Reports = append(sel.Reports, RelayReport{Index: i, LagSamples: scratch.LagSamples, Peak: scratch.Peak})
	}
	// Insertion sort by descending lag: stable, allocation-free, and the
	// relay count is small.
	for i := 1; i < len(sel.Reports); i++ {
		r := sel.Reports[i]
		j := i - 1
		for ; j >= 0 && sel.Reports[j].LagSamples < r.LagSamples; j-- {
			sel.Reports[j+1] = sel.Reports[j]
		}
		sel.Reports[j+1] = r
	}
	top := sel.Reports[0]
	if top.LagSamples >= minLead && top.Peak >= minPeak {
		sel.Best = top.Index
	}
	return nil
}
