// Package metrics quantifies noise-cancellation quality: per-frequency
// cancellation spectra (the y-axis of Figures 12, 14, 16 and 17),
// wide-band averages, convergence timelines, A-weighted residual loudness,
// and the listener rating model that substitutes for the paper's human
// volunteers (Figure 15).
package metrics

import (
	"errors"
	"fmt"
	"math"

	"mute/internal/audio"
	"mute/internal/dsp"
)

// ErrNonFinite reports that an input signal produced a non-finite power
// (NaN or Inf) — e.g. a residual containing NaN samples. Metrics return it
// instead of propagating NaN into scores.
var ErrNonFinite = errors.New("metrics: non-finite signal power")

// CancellationSpectrum compares the sound at the measurement microphone
// with cancellation off and on, returning cancellation in dB per frequency
// bin (negative = quieter with cancellation), exactly the quantity the
// paper plots.
type CancellationSpectrum struct {
	// Freqs are bin center frequencies in Hz.
	Freqs []float64
	// DB[i] is 10·log10(P_on(f)/P_off(f)).
	DB []float64
}

// NewCancellationSpectrum computes the spectrum from "off" (uncancelled)
// and "on" (cancelled) recordings at the measurement microphone.
func NewCancellationSpectrum(off, on []float64, sampleRate float64, segLen int) (*CancellationSpectrum, error) {
	pOff, err := dsp.WelchPSD(off, sampleRate, segLen)
	if err != nil {
		return nil, fmt.Errorf("metrics: off PSD: %w", err)
	}
	pOn, err := dsp.WelchPSD(on, sampleRate, segLen)
	if err != nil {
		return nil, fmt.Errorf("metrics: on PSD: %w", err)
	}
	n := len(pOff.Power)
	if len(pOn.Power) < n {
		n = len(pOn.Power)
	}
	cs := &CancellationSpectrum{Freqs: make([]float64, n), DB: make([]float64, n)}
	for k := 0; k < n; k++ {
		cs.Freqs[k] = pOff.Freqs[k]
		cs.DB[k] = dsp.DB((pOn.Power[k] + dsp.EpsilonPower) / (pOff.Power[k] + dsp.EpsilonPower))
	}
	return cs, nil
}

// AverageDB returns the mean cancellation over [loHz, hiHz], the headline
// numbers of Section 5.2 (e.g. "6.7 dB within 1 kHz").
func (cs *CancellationSpectrum) AverageDB(loHz, hiHz float64) float64 {
	var sum float64
	var n int
	for k, f := range cs.Freqs {
		if f >= loHz && f < hiHz {
			sum += cs.DB[k]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BandTable resamples the spectrum onto nBands equal-width bands spanning
// [0, maxHz] for compact table output.
func (cs *CancellationSpectrum) BandTable(nBands int, maxHz float64) ([]float64, []float64) {
	centers := make([]float64, nBands)
	vals := make([]float64, nBands)
	width := maxHz / float64(nBands)
	for b := 0; b < nBands; b++ {
		lo := float64(b) * width
		centers[b] = lo + width/2
		vals[b] = cs.AverageDB(lo, lo+width)
	}
	return centers, vals
}

// ResidualTimeline tracks the short-window residual error power over time,
// used for convergence plots (Figure 8) and the profiling experiment.
type ResidualTimeline struct {
	// WindowSamples is the averaging window length.
	WindowSamples int
	// Times are window-start times in seconds; PowersDB the mean residual
	// power per window in dB relative to full scale.
	Times    []float64
	PowersDB []float64
}

// NewResidualTimeline segments e into windows of winSamples.
func NewResidualTimeline(e []float64, sampleRate float64, winSamples int) (*ResidualTimeline, error) {
	if winSamples <= 0 {
		return nil, fmt.Errorf("metrics: window must be positive, got %d", winSamples)
	}
	if len(e) == 0 {
		return nil, dsp.ErrEmptyInput
	}
	rt := &ResidualTimeline{WindowSamples: winSamples}
	for start := 0; start+winSamples <= len(e); start += winSamples {
		p := dsp.Power(e[start : start+winSamples])
		rt.Times = append(rt.Times, float64(start)/sampleRate)
		rt.PowersDB = append(rt.PowersDB, dsp.DB(p))
	}
	return rt, nil
}

// AWeight returns the A-weighting magnitude (linear) at frequency f Hz —
// the standard model of human loudness sensitivity, used by the listener
// rating model.
func AWeight(f float64) float64 {
	if f <= 0 {
		return 0
	}
	f2 := f * f
	num := 12194.0 * 12194.0 * f2 * f2
	den := (f2 + 20.6*20.6) *
		math.Sqrt((f2+107.7*107.7)*(f2+737.9*737.9)) *
		(f2 + 12194.0*12194.0)
	// Normalize to 0 dB at 1 kHz.
	const norm = 1.2588966 // 10^(2/20) ≈ gain correction for A-weighting
	return norm * num / den
}

// AWeightedPower integrates a PSD under the A-weighting curve, returning a
// perceptual loudness proxy (linear power).
func AWeightedPower(p *dsp.PSD) float64 {
	var sum float64
	for k, f := range p.Freqs {
		w := AWeight(f)
		sum += p.Power[k] * w * w
	}
	return sum
}

// Listener is a deterministic stand-in for one human volunteer: it maps
// A-weighted residual loudness to a 1–5 star rating with a per-listener
// bias and slight nonlinearity, so five seeds produce five plausibly
// different — but consistently ordered — raters.
type Listener struct {
	bias  float64 // per-listener offset in dB
	slope float64 // dB per star
	rng   *audio.RNG
}

// NewListener creates listener #id (id also seeds the per-rating jitter).
func NewListener(id int) *Listener {
	rng := audio.NewRNG(uint64(id)*2654435761 + 1)
	return &Listener{
		bias:  rng.Range(-2, 2),
		slope: rng.Range(5.5, 7.5),
		rng:   rng,
	}
}

// Rate converts residual and reference (uncancelled) recordings into a
// 1–5 star rating: 5 stars ≈ residual ≥ ~25 dB below reference, 1 star ≈
// no improvement. Ratings are clamped to [1, 5] and quantized to halves.
func (l *Listener) Rate(residual, reference []float64, sampleRate float64) (float64, error) {
	pr, err := dsp.WelchPSD(residual, sampleRate, 1024)
	if err != nil {
		return 0, err
	}
	pf, err := dsp.WelchPSD(reference, sampleRate, 1024)
	if err != nil {
		return 0, err
	}
	lr := AWeightedPower(pr)
	lf := AWeightedPower(pf)
	if math.IsNaN(lr) || math.IsInf(lr, 0) {
		return 0, fmt.Errorf("%w: residual", ErrNonFinite)
	}
	if math.IsNaN(lf) || math.IsInf(lf, 0) {
		return 0, fmt.Errorf("%w: reference", ErrNonFinite)
	}
	improveDB := -dsp.DB((lr + dsp.EpsilonPower) / (lf + dsp.EpsilonPower))
	stars := 1 + (improveDB+l.bias)/l.slope
	stars += l.rng.Range(-0.2, 0.2)
	if stars < 1 {
		stars = 1
	}
	if stars > 5 {
		stars = 5
	}
	return math.Round(stars*2) / 2, nil
}
