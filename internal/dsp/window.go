package dsp

import "math"

// Window identifies a tapering window function.
type Window int

// Supported window shapes.
const (
	Rectangular Window = iota
	Hann
	Hamming
	Blackman
)

// Coefficients returns the n window coefficients (symmetric form).
func (w Window) Coefficients(n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	den := float64(n - 1)
	for i := 0; i < n; i++ {
		t := float64(i) / den
		switch w {
		case Rectangular:
			out[i] = 1
		case Hann:
			out[i] = 0.5 - 0.5*math.Cos(2*math.Pi*t)
		case Hamming:
			out[i] = 0.54 - 0.46*math.Cos(2*math.Pi*t)
		case Blackman:
			out[i] = 0.42 - 0.5*math.Cos(2*math.Pi*t) + 0.08*math.Cos(4*math.Pi*t)
		default:
			out[i] = 1
		}
	}
	return out
}

// Apply multiplies x by the window coefficients in place and returns x.
// len(x) determines the window length.
func (w Window) Apply(x []float64) []float64 {
	c := w.Coefficients(len(x))
	for i := range x {
		x[i] *= c[i]
	}
	return x
}
