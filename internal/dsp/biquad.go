package dsp

import (
	"fmt"
	"math"
)

// Biquad is a direct-form-II-transposed second-order IIR section. It models
// transducer resonances (the cheap speaker/microphone response of Figure 13)
// and provides cheap high-pass/low-pass shaping.
type Biquad struct {
	b0, b1, b2 float64
	a1, a2     float64
	z1, z2     float64
}

// NewLowPassBiquad designs a Butterworth-style low-pass biquad at fcHz with
// quality factor q (q = 0.7071 for Butterworth).
func NewLowPassBiquad(fcHz, sampleRate, q float64) (*Biquad, error) {
	if err := checkBiquad(fcHz, sampleRate, q); err != nil {
		return nil, err
	}
	w0 := 2 * math.Pi * fcHz / sampleRate
	alpha := math.Sin(w0) / (2 * q)
	cw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 - cw) / 2 / a0,
		b1: (1 - cw) / a0,
		b2: (1 - cw) / 2 / a0,
		a1: -2 * cw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// NewHighPassBiquad designs a Butterworth-style high-pass biquad at fcHz.
func NewHighPassBiquad(fcHz, sampleRate, q float64) (*Biquad, error) {
	if err := checkBiquad(fcHz, sampleRate, q); err != nil {
		return nil, err
	}
	w0 := 2 * math.Pi * fcHz / sampleRate
	alpha := math.Sin(w0) / (2 * q)
	cw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 + cw) / 2 / a0,
		b1: -(1 + cw) / a0,
		b2: (1 + cw) / 2 / a0,
		a1: -2 * cw / a0,
		a2: (1 - alpha) / a0,
	}, nil
}

// NewPeakBiquad designs a peaking-EQ biquad with the given gain in dB,
// used to sculpt resonant bumps into the transducer model.
func NewPeakBiquad(fcHz, sampleRate, q, gainDB float64) (*Biquad, error) {
	if err := checkBiquad(fcHz, sampleRate, q); err != nil {
		return nil, err
	}
	a := math.Pow(10, gainDB/40)
	w0 := 2 * math.Pi * fcHz / sampleRate
	alpha := math.Sin(w0) / (2 * q)
	cw := math.Cos(w0)
	a0 := 1 + alpha/a
	return &Biquad{
		b0: (1 + alpha*a) / a0,
		b1: -2 * cw / a0,
		b2: (1 - alpha*a) / a0,
		a1: -2 * cw / a0,
		a2: (1 - alpha/a) / a0,
	}, nil
}

// NewHighShelfBiquad designs an RBJ high-shelf biquad that applies gainDB
// above fcHz (negative gain attenuates). Shelf filters are minimum-phase,
// which matters when modelling physical attenuators like passive ear cups.
func NewHighShelfBiquad(fcHz, sampleRate, q, gainDB float64) (*Biquad, error) {
	if err := checkBiquad(fcHz, sampleRate, q); err != nil {
		return nil, err
	}
	a := math.Pow(10, gainDB/40)
	w0 := 2 * math.Pi * fcHz / sampleRate
	alpha := math.Sin(w0) / (2 * q)
	cw := math.Cos(w0)
	sq := 2 * math.Sqrt(a) * alpha
	a0 := (a + 1) - (a-1)*cw + sq
	return &Biquad{
		b0: a * ((a + 1) + (a-1)*cw + sq) / a0,
		b1: -2 * a * ((a - 1) + (a+1)*cw) / a0,
		b2: a * ((a + 1) + (a-1)*cw - sq) / a0,
		a1: 2 * ((a - 1) - (a+1)*cw) / a0,
		a2: ((a + 1) - (a-1)*cw - sq) / a0,
	}, nil
}

func checkBiquad(fcHz, sampleRate, q float64) error {
	if sampleRate <= 0 {
		return fmt.Errorf("dsp: sample rate must be positive, got %g", sampleRate)
	}
	if fcHz <= 0 || fcHz >= sampleRate/2 {
		return fmt.Errorf("dsp: biquad corner %g Hz outside (0, %g)", fcHz, sampleRate/2)
	}
	if q <= 0 {
		return fmt.Errorf("dsp: q must be positive, got %g", q)
	}
	return nil
}

// Process filters one sample.
func (b *Biquad) Process(x float64) float64 {
	y := b.b0*x + b.z1
	b.z1 = b.b1*x - b.a1*y + b.z2
	b.z2 = b.b2*x - b.a2*y
	return y
}

// ProcessBlock filters a block, returning a new slice.
func (b *Biquad) ProcessBlock(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = b.Process(v)
	}
	return out
}

// Reset clears the filter state.
func (b *Biquad) Reset() { b.z1, b.z2 = 0, 0 }

// Response returns the magnitude response of the biquad at fHz.
func (b *Biquad) Response(fHz, sampleRate float64) float64 {
	w := 2 * math.Pi * fHz / sampleRate
	cos1, sin1 := math.Cos(w), math.Sin(w)
	cos2, sin2 := math.Cos(2*w), math.Sin(2*w)
	numRe := b.b0 + b.b1*cos1 + b.b2*cos2
	numIm := -(b.b1*sin1 + b.b2*sin2)
	denRe := 1 + b.a1*cos1 + b.a2*cos2
	denIm := -(b.a1*sin1 + b.a2*sin2)
	num := math.Hypot(numRe, numIm)
	den := math.Hypot(denRe, denIm)
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// BiquadChain runs samples through a cascade of biquad sections.
type BiquadChain struct {
	sections []*Biquad
}

// NewBiquadChain builds a cascade from the given sections.
func NewBiquadChain(sections ...*Biquad) *BiquadChain {
	return &BiquadChain{sections: sections}
}

// Process filters one sample through every section in order.
func (c *BiquadChain) Process(x float64) float64 {
	for _, s := range c.sections {
		x = s.Process(x)
	}
	return x
}

// ProcessBlock filters a block through the cascade.
func (c *BiquadChain) ProcessBlock(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = c.Process(v)
	}
	return out
}

// Reset clears every section's state.
func (c *BiquadChain) Reset() {
	for _, s := range c.sections {
		s.Reset()
	}
}

// Response returns the cascade magnitude response at fHz.
func (c *BiquadChain) Response(fHz, sampleRate float64) float64 {
	r := 1.0
	for _, s := range c.sections {
		r *= s.Response(fHz, sampleRate)
	}
	return r
}
