package stream

import (
	"fmt"
	"sort"

	"mute/internal/audio"
	"mute/internal/dsp"
)

// SkewStep schedules an instantaneous oscillator frequency change —
// a temperature shock, a PLL re-lock — at a relay-clock sample index.
type SkewStep struct {
	// AtSample is the relay-clock sample index at which the step applies.
	AtSample uint64
	// DeltaPPM is added to the skew from that sample on.
	DeltaPPM float64
}

// The skew injector's fixed tuning.
const (
	// wanderInterval is how often, in relay samples, the wander walk
	// takes a step (50 ms at 8 kHz).
	wanderInterval = 400
	// skewMaxPPM clamps the total instantaneous skew magnitude.
	skewMaxPPM = 1000
)

// SkewParams configures a ClockSkew fault injector: the relay's sample
// clock runs at fs·(1 + PPM·1e-6) while the ear's runs at fs, plus an
// optional slow random walk (crystal temperature drift) and scheduled
// steps. The zero value is a disabled injector — an exact identity.
type SkewParams struct {
	// Seed drives the wander random walk (unused when WanderPPM is 0).
	Seed uint64
	// PPM is the constant relay-vs-ear frequency offset in parts per
	// million, at most 1000 in magnitude. Positive = the relay clock runs
	// fast.
	PPM float64
	// WanderPPM is the standard deviation of a random walk added to PPM
	// every 400 relay samples (0 = no wander).
	WanderPPM float64
	// Steps schedules instantaneous frequency changes.
	Steps []SkewStep
}

// Enabled reports whether the parameters describe any actual skew.
func (p SkewParams) Enabled() bool {
	return p.PPM != 0 || p.WanderPPM != 0 || len(p.Steps) > 0
}

// Validate checks the parameters.
func (p SkewParams) Validate() error {
	if p.WanderPPM < 0 {
		return fmt.Errorf("stream: negative skew wander %g", p.WanderPPM)
	}
	if p.PPM > skewMaxPPM || p.PPM < -skewMaxPPM {
		return fmt.Errorf("stream: skew %g ppm exceeds clamp %d", p.PPM, skewMaxPPM)
	}
	return nil
}

// ClockSkew models the relay's skewed oscillator as seen from the ear
// clock. The relay's r-th sample is captured at ear-clock position
// Pos(r), where consecutive samples are 1/(1+skew·1e-6) ear samples
// apart: a fast relay clock (positive ppm) packs its samples into less
// ear time, so its timestamps — which count relay samples — run ahead of
// the ear's.
//
// At zero configured skew the increment is exactly 1.0, so positions are
// exact integers and a Capture is a plain copy of the ear-clock signal.
// The wander walk draws from a seeded RNG
// only when WanderPPM is non-zero, composing with LossyLink without
// disturbing its draw order.
type ClockSkew struct {
	p       SkewParams
	rng     *audio.RNG
	r       uint64  // relay sample index of the next Advance
	pos     float64 // ear-clock position of relay sample r
	wander  float64 // random-walk ppm component
	stepAcc float64 // accumulated Steps ppm
	stepIdx int
}

// NewClockSkew creates the injector. Steps are applied in AtSample order
// regardless of slice order.
func NewClockSkew(p SkewParams) (*ClockSkew, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	steps := append([]SkewStep(nil), p.Steps...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].AtSample < steps[j].AtSample })
	p.Steps = steps
	c := &ClockSkew{p: p}
	if p.WanderPPM > 0 {
		c.rng = audio.NewRNG(p.Seed*0x9e3779b9 + 0x7f4a7c15)
	}
	return c, nil
}

// PPM returns the instantaneous relay-vs-ear skew, clamped to ±1000.
func (c *ClockSkew) PPM() float64 {
	s := c.p.PPM + c.wander + c.stepAcc
	if s > skewMaxPPM {
		s = skewMaxPPM
	} else if s < -skewMaxPPM {
		s = -skewMaxPPM
	}
	return s
}

// Pos returns the ear-clock position of the next relay sample (the one
// the next Advance captures) without advancing.
func (c *ClockSkew) Pos() float64 { return c.pos }

// Advance captures one relay sample: it returns the sample's ear-clock
// position and moves the relay clock forward one skewed sample period.
// The first call returns exactly 0.
func (c *ClockSkew) Advance() float64 {
	for c.stepIdx < len(c.p.Steps) && c.p.Steps[c.stepIdx].AtSample <= c.r {
		c.stepAcc += c.p.Steps[c.stepIdx].DeltaPPM
		c.stepIdx++
	}
	if c.rng != nil && c.r%wanderInterval == 0 {
		c.wander += c.p.WanderPPM * c.rng.Norm()
	}
	p := c.pos
	c.pos += 1 / (1 + c.PPM()*1e-6)
	c.r++
	return p
}

// Capture returns the relay's next n samples of x, each read at its
// ear-clock position (cubic interpolation between ear samples; silence
// once the relay has run past the end of x), and advances the clock past
// them. On a disabled injector every position is an exact integer, so a
// capture that lies inside x is x's own subslice, shared rather than
// copied; the caller must not write to it.
func (c *ClockSkew) Capture(x []float64, n int) []float64 {
	if r := int(c.pos); !c.p.Enabled() && r+n <= len(x) {
		c.pos += float64(n)
		c.r += uint64(n)
		return x[r : r+n : r+n]
	}
	out := make([]float64, n)
	for i := range out {
		if p := c.Advance(); p < float64(len(x)) {
			out[i] = dsp.CubicInterpAt(x, p)
		}
	}
	return out
}
