// Package rf simulates MUTE's analog wireless relay link at complex
// baseband: the frequency-modulation chain of Figure 9 (microphone → LPF →
// amplifier → VCO/FM → mixer/PA) and the corresponding receiver, plus the
// channel impairments the paper designs around — carrier frequency offset,
// amplitude distortion, additive noise, and PA nonlinearity.
//
// The 900 MHz carrier is not represented explicitly: up/down-conversion by
// an ideal mixer is an identity at complex baseband, and every impairment
// the paper discusses (CFO → DC offset after FM demodulation, amplitude
// noise rejected by constant-envelope FM) appears at baseband unchanged.
package rf

import (
	"fmt"
	"math"
	"math/cmplx"

	"mute/internal/audio"
)

// FMParams configures the FM link.
type FMParams struct {
	// AudioRate is the message sample rate in Hz (the paper's 8 kHz).
	AudioRate float64
	// Oversample is the ratio of baseband RF rate to audio rate.
	Oversample int
	// DeviationHz is the peak frequency deviation A_f for a full-scale
	// (|m| = 1) message.
	DeviationHz float64
}

// DefaultFMParams returns the narrowband configuration used throughout the
// evaluation: 8 kHz audio, 16× oversampled baseband, 3 kHz deviation
// (Carson bandwidth ≈ 14 kHz, well under the 26 MHz ISM channel the paper
// notes).
func DefaultFMParams() FMParams {
	return FMParams{AudioRate: 8000, Oversample: 16, DeviationHz: 3000}
}

// Validate checks the parameters.
func (p FMParams) Validate() error {
	if p.AudioRate <= 0 {
		return fmt.Errorf("rf: audio rate %g must be positive", p.AudioRate)
	}
	if p.Oversample < 2 {
		return fmt.Errorf("rf: oversample %d must be >= 2", p.Oversample)
	}
	if p.DeviationHz <= 0 {
		return fmt.Errorf("rf: deviation %g must be positive", p.DeviationHz)
	}
	if p.DeviationHz >= p.BasebandRate()/2 {
		return fmt.Errorf("rf: deviation %g exceeds baseband Nyquist %g", p.DeviationHz, p.BasebandRate()/2)
	}
	return nil
}

// BasebandRate returns the complex-baseband sample rate in Hz.
func (p FMParams) BasebandRate() float64 { return p.AudioRate * float64(p.Oversample) }

// Modulate frequency-modulates the audio message (Equation 9 of the paper,
// at baseband): x[n] = exp(j 2π A_f Σ m). Each audio sample is held for
// Oversample baseband samples (the VCO integrates a zero-order-hold
// message, matching the analog design's lack of digital interpolation).
func Modulate(p FMParams, msg []float64) ([]complex128, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bbRate := p.BasebandRate()
	out := make([]complex128, len(msg)*p.Oversample)
	phase := 0.0
	i := 0
	for _, m := range msg {
		step := 2 * math.Pi * p.DeviationHz * m / bbRate
		for k := 0; k < p.Oversample; k++ {
			phase += step
			if phase > math.Pi {
				phase -= 2 * math.Pi
			} else if phase < -math.Pi {
				phase += 2 * math.Pi
			}
			out[i] = cmplx.Rect(1, phase)
			i++
		}
	}
	return out, nil
}

// Demodulate recovers the audio message from baseband FM samples by phase
// differentiation, averages each audio-sample period, and removes the DC
// offset produced by any carrier frequency offset (the property that lets
// MUTE skip explicit CFO compensation).
func Demodulate(p FMParams, x []complex128) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, nil
	}
	bbRate := p.BasebandRate()
	inst := make([]float64, len(x))
	prev := x[0]
	for i := 1; i < len(x); i++ {
		d := x[i] * cmplx.Conj(prev)
		inst[i] = cmplx.Phase(d) * bbRate / (2 * math.Pi * p.DeviationHz)
		prev = x[i]
	}
	// Decimate by averaging each oversample block.
	n := len(x) / p.Oversample
	msg := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for k := 0; k < p.Oversample; k++ {
			acc += inst[i*p.Oversample+k]
		}
		msg[i] = acc / float64(p.Oversample)
	}
	removeDC(msg)
	return msg, nil
}

// removeDC subtracts a slowly tracked mean (one-pole high-pass), modelling
// the receiver's averaging of the CFO-induced DC term.
func removeDC(x []float64) {
	const alpha = 0.999
	var mean float64
	// Initialize the tracker with the head of the signal so short inputs
	// are still centered.
	n := len(x)
	if n == 0 {
		return
	}
	warm := n
	if warm > 256 {
		warm = 256
	}
	for i := 0; i < warm; i++ {
		mean += x[i]
	}
	mean /= float64(warm)
	for i := range x {
		mean = alpha*mean + (1-alpha)*x[i]
		x[i] -= mean
	}
}

// ChannelParams models the RF channel and front-end impairments.
type ChannelParams struct {
	// SNRdB is the baseband signal-to-noise ratio; +Inf disables noise.
	SNRdB float64
	// CFOHz is the carrier frequency offset between transmitter PLL and
	// receiver LO.
	CFOHz float64
	// PhaseNoiseStd is the per-sample standard deviation (radians) of a
	// random-walk phase noise process. 0 disables it.
	PhaseNoiseStd float64
	// PASaturation is the amplifier soft-clipping level relative to the
	// unit envelope; values <= 0 disable the nonlinearity. Constant-
	// envelope FM should pass through unharmed — that is the point the
	// paper makes for choosing FM.
	PASaturation float64
	// Gain is a flat channel amplitude gain (1 = lossless). The paper's
	// single-tap flat channel h_w.
	Gain float64
	// Seed drives the deterministic noise processes.
	Seed uint64
}

// DefaultChannel returns a benign channel: 30 dB SNR, 500 Hz CFO, light
// phase noise, PA saturation at 1.0, unit gain.
func DefaultChannel() ChannelParams {
	return ChannelParams{SNRdB: 30, CFOHz: 500, PhaseNoiseStd: 0.002, PASaturation: 1.0, Gain: 1, Seed: 1}
}

// Apply passes baseband samples through the impaired channel.
func Apply(p FMParams, ch ChannelParams, x []complex128) ([]complex128, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gain := ch.Gain
	if gain == 0 {
		gain = 1
	}
	rng := audio.NewRNG(ch.Seed)
	bbRate := p.BasebandRate()
	cfoStep := 2 * math.Pi * ch.CFOHz / bbRate
	var noiseStd float64
	if !math.IsInf(ch.SNRdB, 1) {
		// Signal power of unit-envelope FM is 1.
		noiseStd = math.Sqrt(math.Pow(10, -ch.SNRdB/10) / 2)
	}
	out := make([]complex128, len(x))
	phase := 0.0
	pn := 0.0
	for i, v := range x {
		// PA nonlinearity: soft-limit the envelope.
		if ch.PASaturation > 0 {
			env := cmplx.Abs(v)
			if env > 0 {
				limited := ch.PASaturation * math.Tanh(env/ch.PASaturation)
				v *= complex(limited/env, 0)
			}
		}
		// CFO and phase noise rotate the constellation.
		phase += cfoStep
		if ch.PhaseNoiseStd > 0 {
			pn += ch.PhaseNoiseStd * rng.Norm()
		}
		v *= cmplx.Rect(gain, phase+pn)
		if noiseStd > 0 {
			v += complex(noiseStd*rng.Norm(), noiseStd*rng.Norm())
		}
		out[i] = v
	}
	return out, nil
}
