package dsp

import (
	"fmt"
	"math"
)

// Sinc returns sin(pi x)/(pi x), with Sinc(0) == 1.
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// LowPassFIR designs a windowed-sinc low-pass FIR filter with the given
// cutoff frequency (Hz), sample rate (Hz), and odd tap count. The filter has
// unit DC gain and linear phase with delay (taps-1)/2 samples.
func LowPassFIR(cutoffHz, sampleRate float64, taps int, w Window) ([]float64, error) {
	if err := validateFIRArgs(cutoffHz, sampleRate, taps); err != nil {
		return nil, err
	}
	fc := cutoffHz / sampleRate // normalized cutoff in cycles/sample
	m := taps - 1
	h := make([]float64, taps)
	for i := 0; i < taps; i++ {
		h[i] = 2 * fc * Sinc(2*fc*(float64(i)-float64(m)/2))
	}
	w.Apply(h)
	// Normalize DC gain to exactly 1.
	var sum float64
	for _, v := range h {
		sum += v
	}
	if sum != 0 {
		Scale(h, 1/sum)
	}
	return h, nil
}

// HighPassFIR designs a windowed-sinc high-pass FIR filter by spectral
// inversion of the corresponding low-pass. taps must be odd.
func HighPassFIR(cutoffHz, sampleRate float64, taps int, w Window) ([]float64, error) {
	if taps%2 == 0 {
		return nil, fmt.Errorf("dsp: high-pass FIR requires odd taps, got %d", taps)
	}
	lp, err := LowPassFIR(cutoffHz, sampleRate, taps, w)
	if err != nil {
		return nil, err
	}
	for i := range lp {
		lp[i] = -lp[i]
	}
	lp[(taps-1)/2] += 1
	return lp, nil
}

func validateFIRArgs(cutoffHz, sampleRate float64, taps int) error {
	if sampleRate <= 0 {
		return fmt.Errorf("dsp: sample rate must be positive, got %g", sampleRate)
	}
	if cutoffHz <= 0 || cutoffHz >= sampleRate/2 {
		return fmt.Errorf("dsp: cutoff %g Hz outside (0, %g)", cutoffHz, sampleRate/2)
	}
	if taps < 3 {
		return fmt.Errorf("dsp: need at least 3 taps, got %d", taps)
	}
	return nil
}

// FIRFilter is a streaming direct-form FIR filter.
type FIRFilter struct {
	conv *StreamConvolver
}

// NewFIRFilter wraps taps h in a streaming filter.
func NewFIRFilter(h []float64) *FIRFilter {
	return &FIRFilter{conv: NewStreamConvolver(h)}
}

// Process filters one sample.
func (f *FIRFilter) Process(x float64) float64 { return f.conv.Process(x) }

// Reset clears filter state.
func (f *FIRFilter) Reset() { f.conv.Reset() }
