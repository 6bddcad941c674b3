// Package headphone models the conventional ANC headphone the paper
// compares against (the Bose QC35 in Section 5): a feedforward filtered-x
// canceller whose reference microphone sits on the ear cup — microseconds
// of lookahead, so its anti-noise reaches the speaker late — plus the
// passive sound-absorbing ear cup that supplies most of the attenuation
// above 1 kHz.
//
// The model encodes exactly the two limitations the paper attributes to
// commercial headphones: (1) the missed timing deadline of Figure 5(a),
// carried by the physical speaker chain the anti-noise traverses (the
// simulator's sub-sample Bose latency), and (2) causal-only filtering,
// which cannot realize the non-causal inverse channel. The canceller is
// therefore LANC (core.LANC) with its non-causal half removed:
// NonCausalTaps 0, CausalTaps Taps−1. Its strengths are also retained:
// clean microphones (negligible self-noise) and a deliberately
// band-limited anti-noise path that keeps the adaptation stable at low
// frequency.
package headphone

import (
	"fmt"

	"mute/internal/core"
	"mute/internal/dsp"
)

// Leak is the headphone model's LMS leakage — the product's own tuning,
// twice MUTE's graph.Leak: the Bose baselines are calibrated with it
// (graph.Leak would move fig14's Music Bose_Overall from −19.8 to
// −20.6 dB).
const Leak = 0.001

// LatencySamples is the headphone's end-to-end processing latency in
// (fractional) samples at 8 kHz. Commercial ANC hardware is heavily
// optimized (~60 µs ≈ 0.5 samples) yet still misses the ~30 µs deadline
// of Figure 5(a); this is the phase error that caps its high-frequency
// cancellation.
const LatencySamples = 0.5

// The product's own canceller tuning, one value each: the causal
// adaptive-filter length, the NLMS step, and the anti-noise band limit —
// commercial ANC deliberately cancels only below ~1 kHz (Section 1).
const (
	Taps              = 64
	Mu                = 0.05
	AntiNoiseCutoffHz = 1000
)

// ANC is the conventional active canceller: a zero-lookahead LANC behind
// the band-limiting anti-noise filter.
type ANC struct {
	lanc  *core.LANC
	bandl *dsp.Biquad
}

// NewANC builds the baseline canceller at the given sample rate around the
// ĥ_se estimate secondaryPath, for the filtered-x update.
func NewANC(sampleRate float64, secondaryPath []float64) (*ANC, error) {
	if sampleRate <= 2*AntiNoiseCutoffHz {
		return nil, fmt.Errorf("headphone: sample rate %g must exceed %g Hz", sampleRate, 2.0*AntiNoiseCutoffHz)
	}
	if len(secondaryPath) == 0 {
		return nil, fmt.Errorf("headphone: missing secondary path estimate")
	}
	lp, err := dsp.NewLowPassBiquad(AntiNoiseCutoffHz, sampleRate, 0.7071)
	if err != nil {
		return nil, err
	}
	// The filtered-x path must model everything between the filter output
	// and the error microphone — including the headphone's own
	// band-limiting — or the LMS update develops a phase error and
	// diverges. The manufacturer knows its hardware, so the baseline gets
	// the same courtesy: ĥ_eff = h_LP ∗ ĥ_se.
	lpIR := make([]float64, 32)
	probe := lp.ProcessBlock(append([]float64{1}, make([]float64, 31)...))
	copy(lpIR, probe)
	lp.Reset()
	lanc, err := core.New(core.Config{
		CausalTaps:    Taps - 1,
		Mu:            Mu,
		Normalized:    true,
		Leak:          Leak,
		SecondaryPath: dsp.Convolve(lpIR, secondaryPath),
	})
	if err != nil {
		return nil, err
	}
	return &ANC{lanc: lanc, bandl: lp}, nil
}

// Step advances one sample period: the reference microphone hears x(t),
// the previous residual error drives adaptation, and the filter computes
// anti-noise which leaves the speaker band-limited. It returns the
// anti-noise sample leaving the speaker now.
func (h *ANC) Step(x, ePrev float64) float64 {
	return h.bandl.Process(h.lanc.Step(x, ePrev))
}

// Prefilter announces the next reference samples the following Step or
// Emit calls will carry, so the canceller filters them in one block pass
// (see core.LANC.Prefilter); the outputs are unchanged.
func (h *ANC) Prefilter(xs []float64) { h.lanc.Prefilter(xs) }

// Emit advances the reference history and output chain and returns the
// anti-noise sample without adapting — Step minus the LMS update. The
// supervisor uses it to keep a fading-out fallback leg audible during a
// crossfade when the residual no longer reflects this filter's output.
func (h *ANC) Emit(x float64) float64 {
	h.lanc.Push(x)
	return h.bandl.Process(h.lanc.AntiNoise())
}

// Reset clears all state.
func (h *ANC) Reset() {
	h.lanc.Reset()
	h.bandl.Reset()
}

// WarmStart seeds the adaptive filter with externally converged causal
// weights — the supervisor hands over LANC's causal taps when the relay
// link dies, so the local fallback starts from a plausible room model
// instead of silence. w[0] is the tap for the newest reference sample;
// shorter or longer slices are truncated/zero-padded to the filter length.
func (h *ANC) WarmStart(w []float64) {
	seed := make([]float64, Taps)
	copy(seed, w)
	// SetWeights only rejects a length mismatch, which the copy precludes.
	_ = h.lanc.SetWeights(seed)
}

// PassiveIsolation models the headphone's sound-absorbing ear cup as a
// causal, minimum-phase FIR (derived from a shelf-filter cascade): nearly
// transparent at very low frequency, strongly attenuating toward 4 kHz,
// shaped after published over-ear passive attenuation measurements. A
// physical cup cannot anticipate sound, so minimum phase — essentially
// zero group delay — is the honest model; a linear-phase design would hand
// whichever algorithm sits under the cup tens of samples of spurious
// lookahead.
func PassiveIsolation(sampleRate float64, taps int) ([]float64, error) {
	if taps < 8 {
		return nil, fmt.Errorf("headphone: passive FIR needs >= 8 taps, got %d", taps)
	}
	s1, err := dsp.NewHighShelfBiquad(800, sampleRate, 0.6, -12)
	if err != nil {
		return nil, fmt.Errorf("headphone: passive shelf 1: %w", err)
	}
	s2, err := dsp.NewHighShelfBiquad(2500, sampleRate, 0.6, -10)
	if err != nil {
		return nil, fmt.Errorf("headphone: passive shelf 2: %w", err)
	}
	chain := dsp.NewBiquadChain(s1, s2)
	in := make([]float64, taps)
	in[0] = dsp.FromDB(-2.0 / 2) // broadband seal leakage: -2 dB
	return chain.ProcessBlock(in), nil
}

// DefaultPassiveTaps is the default passive-isolation FIR length.
const DefaultPassiveTaps = 65
