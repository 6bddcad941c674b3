package dsp

import (
	"fmt"
)

// PSD holds a one-sided power spectral density estimate.
type PSD struct {
	// Power[k] is the mean power in bin k (linear, not dB).
	Power []float64
	// Freqs[k] is the center frequency of bin k in Hz.
	Freqs []float64
	// BinWidth is the frequency resolution in Hz.
	BinWidth float64
}

// WelchPSD estimates the one-sided power spectral density of x using
// Welch's method: segments of segLen samples (rounded up to a power of
// two), 50% overlap, Hann window. Returns an error for empty input or a
// non-positive segment length.
func WelchPSD(x []float64, sampleRate float64, segLen int) (*PSD, error) {
	if len(x) == 0 {
		return nil, ErrEmptyInput
	}
	if segLen <= 0 {
		return nil, fmt.Errorf("dsp: segment length must be positive, got %d", segLen)
	}
	n := NextPow2(segLen)
	if n > len(x) {
		n = NextPow2(len(x))
		if n > len(x) {
			n >>= 1
		}
		if n < 2 {
			n = 2
		}
	}
	w := Hann.Coefficients(n)
	var winPower float64
	for _, v := range w {
		winPower += v * v
	}
	half := n/2 + 1
	acc := make([]float64, half)
	hop := n / 2
	segments := 0
	// Real input: the packed RFFT plan does each segment in half the
	// butterflies of the full complex transform, with pooled scratch.
	plan := PlanRFFT(n)
	seg := getFloat(n)
	X := getComplex(half)
	defer putFloat(seg)
	defer putComplex(X)
	for start := 0; start+n <= len(x); start += hop {
		for i := 0; i < n; i++ {
			seg[i] = x[start+i] * w[i]
		}
		plan.Forward(X, seg)
		for k := 0; k < half; k++ {
			// |X|² straight from the components: the overflow-guarded
			// hypot of cmplx.Abs costs a sqrt per bin for protection a
			// power accumulation does not need.
			re, im := real(X[k]), imag(X[k])
			acc[k] += re*re + im*im
		}
		segments++
	}
	if segments == 0 {
		// Input shorter than one segment: single zero-padded segment.
		for i := 0; i < len(x); i++ {
			seg[i] = x[i] * w[i]
		}
		for i := len(x); i < n; i++ {
			seg[i] = 0
		}
		plan.Forward(X, seg)
		for k := 0; k < half; k++ {
			re, im := real(X[k]), imag(X[k])
			acc[k] += re*re + im*im
		}
		segments = 1
	}
	psd := &PSD{
		Power:    make([]float64, half),
		Freqs:    make([]float64, half),
		BinWidth: sampleRate / float64(n),
	}
	// Normalize so that the summed bins approximate the mean squared signal
	// value: divide by segments (averaging), the window's energy, and N
	// (DFT Parseval factor).
	norm := 1 / (float64(segments) * winPower * float64(n))
	for k := 0; k < half; k++ {
		psd.Power[k] = acc[k] * norm
		psd.Freqs[k] = float64(k) * psd.BinWidth
		// One-sided: double the interior bins.
		if k != 0 && k != half-1 {
			psd.Power[k] *= 2
		}
	}
	return psd, nil
}

// BandPower integrates the PSD over [loHz, hiHz] and returns the total
// power in that band.
func (p *PSD) BandPower(loHz, hiHz float64) float64 {
	var sum float64
	for k, f := range p.Freqs {
		if f >= loHz && f < hiHz {
			sum += p.Power[k]
		}
	}
	return sum
}

// BandEnergies splits the PSD into nBands equal-width bands spanning
// [0, maxHz] and returns the power in each. Used for sound-profile
// signatures.
func (p *PSD) BandEnergies(nBands int, maxHz float64) []float64 {
	out := make([]float64, nBands)
	if nBands == 0 {
		return out
	}
	width := maxHz / float64(nBands)
	for k, f := range p.Freqs {
		if f >= maxHz {
			break
		}
		b := int(f / width)
		if b >= nBands {
			b = nBands - 1
		}
		out[b] += p.Power[k]
	}
	return out
}
