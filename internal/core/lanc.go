// Package core implements LANC — Lookahead-Aware Noise Cancellation — the
// primary contribution of the MUTE paper (Section 3, Algorithm 1).
//
// LANC is a filtered-x adaptive filter whose taps extend into the future:
// h_AF(k) for k ∈ [−N, L]. The non-causal taps (k < 0) are realizable
// because the IoT relay forwards the reference signal over RF, delivering
// x(t+N) while the acoustic wavefront carrying x(t) is still in flight.
// Larger N yields a better approximation of the non-causal inverse channel
// h_nr⁻¹ (Equation 2) and therefore deeper cancellation of unpredictable
// wide-band sound.
//
// The package also implements the paper's second lookahead opportunity:
// predictive sound profiling (Section 3.2(2)). A classifier watches the
// lookahead buffer, recognizes imminent profile transitions (speech
// starting or stopping), and swaps cached converged filters in place of
// gradient re-convergence.
package core

import (
	"fmt"
	"math"
	"slices"

	"mute/internal/dsp"
	"mute/internal/profile"
)

// Config parameterizes a LANC instance.
type Config struct {
	// NonCausalTaps is N: how many future reference samples the filter
	// uses. It must not exceed the lookahead the deployment provides
	// (see Budget).
	NonCausalTaps int
	// CausalTaps is L: how many past reference samples the filter uses.
	CausalTaps int
	// Mu is the adaptation step size.
	Mu float64
	// Normalized selects NLMS-style power-normalized steps.
	Normalized bool
	// SecondaryPath is the estimate ĥ_se of the anti-noise speaker →
	// error microphone channel, obtained via anc.EstimateSecondaryPath.
	SecondaryPath []float64
	// Leak is an optional LMS leakage factor in [0, 1).
	Leak float64
	// ErrorDelay is how many samples late the residual error reaches the
	// adaptation (e.g. the uplink leg of the Tabletop variant of Section
	// 4.3). The filtered-x pairing is shifted to match, which keeps the
	// gradient aligned; 0 for co-located DSPs.
	ErrorDelay int

	// LossAware makes the canceller transport-aware: adaptation freezes
	// while concealed (zero-filled) reference samples from a lossy link
	// sit inside the gradient window — NLMS adapting against zeros
	// corrupts the filter exactly when the link is worst — and the step
	// size ramps back linearly over the recovery ramp — the filter window
	// N+L+1, but at least 256 samples — once real samples return. The
	// profiler (when enabled) also holds its current filter instead of
	// classifying a zero-filled window as silence.
	// Concealment is reported per sample via PushMasked / StepMasked;
	// degradation is bounded at the passive-isolation floor (weights
	// hold, anti-noise from the surviving samples), never divergence.
	LossAware bool

	// Profiling enables predictive filter switching.
	Profiling bool
	// ProfileWindow is the signature window length in samples (default
	// 1024). The window ends at the most-future sample available, so
	// transitions are seen NonCausalTaps samples before they arrive.
	ProfileWindow int
	// ProfileHop is how often (samples) the profiler re-classifies
	// (default 256).
	ProfileHop int
	// ProfileThreshold is the signature matching distance (default 0.45).
	ProfileThreshold float64
	// MaxProfiles caps tracked profiles (default 4).
	MaxProfiles int
	// SampleRate is required when Profiling is on.
	SampleRate float64
}

// recoveryRamp is the step-size ramp-back length in samples after a loss
// freeze or an adaptation hold: the filter window N+L+1, but at least 256.
func (c *Config) recoveryRamp() int {
	return max(c.NonCausalTaps+c.CausalTaps+1, 256)
}

// profileBands is the profiler's signature resolution in bands.
const profileBands = 8

// Validate checks the configuration and applies profiling defaults.
func (c *Config) Validate() error {
	if c.NonCausalTaps < 0 {
		return fmt.Errorf("core: negative non-causal taps %d", c.NonCausalTaps)
	}
	if c.CausalTaps < 0 {
		return fmt.Errorf("core: negative causal taps %d", c.CausalTaps)
	}
	if c.NonCausalTaps+c.CausalTaps == 0 {
		return fmt.Errorf("core: filter needs at least one tap")
	}
	if c.Mu <= 0 {
		return fmt.Errorf("core: mu must be positive, got %g", c.Mu)
	}
	if c.Leak < 0 || c.Leak >= 1 {
		return fmt.Errorf("core: leak %g outside [0, 1)", c.Leak)
	}
	if c.ErrorDelay < 0 {
		return fmt.Errorf("core: negative error delay %d", c.ErrorDelay)
	}
	if len(c.SecondaryPath) == 0 {
		return fmt.Errorf("core: missing secondary path estimate")
	}
	if c.Profiling {
		if c.SampleRate <= 0 {
			return fmt.Errorf("core: profiling requires a sample rate")
		}
		// The defaults are the tuning the paper's timelines use
		// (§3.2(2)): a 128 ms signature re-classified every 32 ms at 8 kHz.
		if c.ProfileWindow <= 0 {
			c.ProfileWindow = 1024
		}
		if c.ProfileHop <= 0 {
			c.ProfileHop = 256
		}
		if c.ProfileThreshold <= 0 {
			c.ProfileThreshold = 0.45
		}
		if c.MaxProfiles <= 0 {
			c.MaxProfiles = 4
		}
	}
	return nil
}

// LANC is the lookahead-aware noise canceller (Algorithm 1).
//
// The taps are stored in window order: w[j] multiplies slot j of the
// reference window xBuf.View(-L, N), so w[j] holds h_AF(L−j) and the
// most-future tap h_AF(−N) is the last element. Tap loops then walk the
// weights and the windows with one index, which lets the compiler drop
// their bounds checks. The public order (Weights, SetWeights) stays
// Weights()[i] = h_AF(i−N); only those accessors convert.
//
// Kernel loops keep the rolled loop's summation order: a sum over taps
// starts at h_AF(−N) and ends at h_AF(L), one addend at a time into one
// accumulator, so the loops walk j from high to low. Unrolling, reslicing
// and reordering loads are free; reassociating the adds is not, because
// it moves the low bits that the golden traces and digest pins hold.
type LANC struct {
	cfg Config

	// Weights in window order: w[j] holds h_AF(L−j), j ∈ [0, N+L].
	w []float64
	// skip is the number of most-future taps (lowest k, the tail of w)
	// currently held at zero by LimitNonCausal. The invariant
	// w[len(w)-skip:] == 0 lets AntiNoise read the full window unchanged;
	// only the update loops and cached-filter loads have to respect it.
	// Zero in normal operation.
	skip int

	// Reference and filtered-x windows. Both expose offsets
	// [-L, +N] around the current time t, plus one extra history slot so
	// the fused Step can read the sample that just slid past -L-ErrorDelay.
	xBuf  *dsp.LookaheadBuffer
	fxBuf *dsp.LookaheadBuffer
	sec   *dsp.StreamConvolver
	// pre[preNext:] are the filtered-x samples of reference samples
	// announced by Prefilter but not yet pushed; sec has already
	// advanced past them.
	pre     []float64
	preNext int
	// NLMS window powers over offsets [-L, +N], maintained incrementally:
	// each Push adds the entering sample and subtracts the leaving one
	// (O(1)), with an exact rescan every window length to cancel
	// floating-point drift (amortized O(1)).
	fxPow    float64
	xPow     float64
	powAge   int     // pushes since the last exact rescan
	powEvery int     // rescan cadence in samples
	errVar   float64 // running residual variance for robust update clipping

	// Loss-aware state (Config.LossAware). concealGuard counts the samples
	// for which a concealed (zero-filled) reference still sits inside the
	// gradient window; adaptation is frozen while it is non-zero.
	// profileGuard does the same for the profiler's raw window, and
	// rampLeft drives the linear step-size ramp after the guard expires
	// over rampLen samples (the recovery ramp for loss freezes; an
	// explicit length for HoldAdaptation holds). The same guard also
	// serves explicit HoldAdaptation freezes, which work without LossAware.
	concealGuard int
	profileGuard int
	rampLeft     int
	rampLen      int

	// Profiling state.
	classifier *profile.Classifier
	cache      *profile.FilterCache
	window     []float64 // sliding raw window ending at the newest sample
	winFill    int
	hopCount   int
	smBands    []float64 // exponentially smoothed band signature
	smLevel    float64
	smPrimed   bool
	currentID  int
	pendingID  int // candidate profile awaiting confirmation
	pendingRun int // consecutive hops the candidate has been seen
	switches   int
}

// New creates a LANC instance. The Config is validated and profiling
// defaults are filled in.
func New(cfg Config) (*LANC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The +1 history slot lets the fused Step address the pre-push window
	// after the buffers have advanced (see Step).
	xb, err := dsp.NewLookaheadBuffer(cfg.CausalTaps+cfg.ErrorDelay+1, cfg.NonCausalTaps)
	if err != nil {
		return nil, err
	}
	fxb, err := dsp.NewLookaheadBuffer(cfg.CausalTaps+cfg.ErrorDelay+1, cfg.NonCausalTaps)
	if err != nil {
		return nil, err
	}
	powEvery := cfg.NonCausalTaps + cfg.CausalTaps + 1
	if powEvery < 64 {
		powEvery = 64
	}
	l := &LANC{
		cfg:      cfg,
		w:        make([]float64, cfg.NonCausalTaps+cfg.CausalTaps+1),
		xBuf:     xb,
		fxBuf:    fxb,
		sec:      dsp.NewStreamConvolver(cfg.SecondaryPath),
		powEvery: powEvery,
	}
	if cfg.Profiling {
		cl, err := profile.NewClassifier(cfg.ProfileThreshold, cfg.MaxProfiles)
		if err != nil {
			return nil, err
		}
		l.classifier = cl
		l.cache = profile.NewFilterCache()
		l.window = make([]float64, cfg.ProfileWindow)
	}
	return l, nil
}

// Push feeds the newest wirelessly forwarded reference sample x(t+N) and
// advances the algorithm's clock to time t. It must be called exactly once
// per sample period, before AntiNoise and Adapt for that period.
func (l *LANC) Push(x float64) { l.PushMasked(x, true) }

// PushMasked is Push plus the transport concealment flag: real reports
// whether x is a genuinely received sample (true) or a zero the jitter
// buffer substituted for a lost frame (false; see stream.JitterBuffer's
// PopMask). With Config.LossAware set, a concealed sample freezes
// adaptation until it has slid out of the gradient window and holds the
// profiler's classification until it has left the signature window.
// Without LossAware the flag is ignored.
func (l *LANC) PushMasked(x float64, real bool) {
	l.noteMask(real)
	l.pushSignal(x)
	if l.cfg.Profiling {
		l.profileStep(x)
	}
}

// noteMask advances the loss guards by one sample period and re-arms them
// when the incoming reference sample is concealed. The conceal guard spans
// the full gradient window [−L−ErrorDelay−1, +N] residence of the zero;
// the profile guard spans the signature window.
func (l *LANC) noteMask(real bool) {
	// The conceal guard advances unconditionally so explicit
	// HoldAdaptation freezes expire even without LossAware; the mask
	// re-arm below stays loss-mode only.
	if l.concealGuard > 0 {
		l.concealGuard--
	}
	if !l.cfg.LossAware {
		return
	}
	if l.profileGuard > 0 {
		l.profileGuard--
	}
	if !real {
		l.concealGuard = l.cfg.NonCausalTaps + l.cfg.CausalTaps + l.cfg.ErrorDelay + 2
		if l.cfg.Profiling {
			l.profileGuard = len(l.window)
		}
		l.rampLeft = l.cfg.recoveryRamp()
		l.rampLen = l.rampLeft
	}
}

// lossGain returns the adaptation gain for the current sample period: 0
// while a concealed sample contaminates the gradient window, a linear ramp
// from 0 to 1 over the recovery ramp after the window clears, and 1 in
// steady state. Calling it consumes one ramp step, so callers invoke it
// exactly once per adapted sample.
func (l *LANC) lossGain() float64 {
	if l.concealGuard > 0 {
		return 0
	}
	if l.rampLeft > 0 && l.rampLen > 0 {
		g := 1 - float64(l.rampLeft)/float64(l.rampLen)
		l.rampLeft--
		return g
	}
	return 1
}

// HoldAdaptation freezes adaptation for hold sample periods and ramps the
// step size back linearly over ramp samples afterwards (ramp <= 0 selects
// the recovery ramp). The drift-correction pipeline calls it when the
// reference resampler's rate jumps — an oscillator step re-lock slews the
// alignment under the filter, and adapting through the slew smears the
// taps the same way concealment zeros would. Unlike the mask-driven
// freeze it works without Config.LossAware; a LANC that is never held
// behaves bit-identically to one without this method. An in-progress
// longer freeze is not shortened.
func (l *LANC) HoldAdaptation(hold, ramp int) {
	if hold <= 0 {
		return
	}
	if ramp <= 0 {
		ramp = l.cfg.recoveryRamp()
	}
	if hold > l.concealGuard {
		l.concealGuard = hold
	}
	l.rampLeft = ramp
	l.rampLen = ramp
}

// Prefilter announces the next len(xs) reference samples before they are
// pushed. Their filtered-x samples are computed in one block pass
// (dsp.StreamConvolver.FilterInto, bit-identical to the per-sample
// filter), and the next len(xs) pushes — through Push, PushMasked, Step
// or StepMasked — consume them in order instead of filtering one sample
// at a time. Those pushes must carry exactly the announced samples.
// Announced samples not yet pushed stay ahead of a new announcement, and
// Reset drops them.
func (l *LANC) Prefilter(xs []float64) {
	left := copy(l.pre, l.pre[l.preNext:])
	l.pre = slices.Grow(l.pre[:left], len(xs))[:left+len(xs)]
	l.preNext = 0
	l.sec.FilterInto(l.pre[left:], xs)
}

// pushSignal advances the reference and filtered-x buffers and maintains
// the NLMS window powers with an O(1) sliding update: the pushed sample
// enters the [-L, +N] window at +N while the sample at -L slides out.
func (l *LANC) pushSignal(x float64) {
	var fx float64
	if l.preNext < len(l.pre) {
		fx = l.pre[l.preNext]
		l.preNext++
	} else {
		fx = l.sec.Process(x)
	}
	if l.cfg.Normalized {
		outX := l.xBuf.At(-l.cfg.CausalTaps)
		outFx := l.fxBuf.At(-l.cfg.CausalTaps)
		l.xPow += x*x - outX*outX
		l.fxPow += fx*fx - outFx*outFx
	}
	l.xBuf.Push(x)
	l.fxBuf.Push(fx)
	if l.cfg.Normalized {
		l.powAge++
		if l.powAge >= l.powEvery {
			l.powAge = 0
			l.rescanPower()
		}
	}
}

// rescanPower recomputes the window powers exactly, cancelling any
// accumulated floating-point drift of the sliding update. Called every
// powEvery (≥ window length) samples, so its O(N+L) cost amortizes to O(1)
// per sample.
func (l *LANC) rescanPower() {
	xs := l.xBuf.View(-l.cfg.CausalTaps, l.cfg.NonCausalTaps)
	fxs := l.fxBuf.View(-l.cfg.CausalTaps, l.cfg.NonCausalTaps)
	var xp, fp float64
	for i, v := range xs {
		xp += v * v
		f := fxs[i]
		fp += f * f
	}
	l.xPow = xp
	l.fxPow = fp
}

// AntiNoise returns the anti-noise sample α(t) = Σ_{k=-N}^{L} h_AF(k) x(t−k)
// (Equation 8). The caller plays it through the anti-noise speaker.
func (l *LANC) AntiNoise() float64 {
	// w[j] pairs with window slot j; the dot product runs from the
	// most-future tap down (see the LANC comment).
	w := l.w
	xs := l.xBuf.View(-l.cfg.CausalTaps, l.cfg.NonCausalTaps)[:len(w)]
	var a float64
	k := len(w)
	for ; k >= 4; k -= 4 {
		w4 := w[k-4 : k : k]
		x4 := xs[k-4 : k : k]
		a += w4[3] * x4[3]
		a += w4[2] * x4[2]
		a += w4[1] * x4[1]
		a += w4[0] * x4[0]
	}
	for j := k - 1; j >= 0; j-- {
		a += w[j] * xs[j]
	}
	return a
}

// clipError applies the robust residual clipping: impulsive residuals
// (hammer strikes, clicks) carry gradients far outside the LMS stability
// region; limit the error to a few standard deviations of its recent
// history (Huber-style).
func (l *LANC) clipError(e float64) float64 {
	l.errVar = 0.998*l.errVar + 0.002*e*e
	return huberClip(e, l.errVar)
}

// huberClip limits e to ±3·√v. An error well inside the limit, the common
// case, is told apart by comparing squares, without the root: e·e < c·v
// with c = 9·(1−10⁻¹²) implies |e| ≤ fl(3·fl(√v)), because that relative
// margin exceeds the few units of 2⁻⁵³ that rounding e·e, c·v, √v and
// 3·√v can move. v > 2⁻⁹⁰⁰ keeps c·v a normal number. The strict
// comparison sends an overflowed e·e to the exact path, and so does a NaN.
func huberClip(e, v float64) float64 {
	if v > 0x1p-900 && e*e < 8.999999999991*v {
		return e
	}
	if limit := 3 * math.Sqrt(v); limit > 0 && (e > limit || e < -limit) {
		if e > 0 {
			return limit
		}
		return -limit
	}
	return e
}

// effectiveMu returns the step size after NLMS power normalization.
func (l *LANC) effectiveMu() float64 {
	mu := l.cfg.Mu
	if l.cfg.Normalized {
		// The regularizer keeps the effective step bounded through quiet
		// stretches, and the raw reference power guards frequencies where
		// the secondary path has little gain (rumble under the
		// transducer's high-pass corner) from inflating the step.
		mu /= l.fxPow + 0.05*l.xPow + 1e-3
	}
	return mu
}

// Adapt applies the filtered-x gradient step for the measured residual
// e(t) at the error microphone (Equation 7, extended to k < 0):
// h_AF(k) ← h_AF(k) − µ e(t) (ĥ_se ∗ x)(t−k).
//
// With Config.LossAware set the step is scaled by the loss gain: the
// update is skipped entirely while a concealed sample sits in the gradient
// window (the residual then reflects the passive floor, not the filter)
// and ramps back after recovery. At zero loss the path is unchanged.
func (l *LANC) Adapt(e float64) {
	gain := l.lossGain()
	if gain == 0 {
		return
	}
	e = l.clipError(e)
	muE := l.effectiveMu() * e * gain
	// A stale error (ErrorDelay > 0) pairs with the equally stale
	// filtered-x history: w[j] needs (ĥ_se ∗ x) at slot j of the window
	// below. Taps disabled by LimitNonCausal (the tail) stay out of the
	// update (and at zero). Each tap's update stands alone, so the walk
	// order does not touch the result.
	ww := l.w[:len(l.w)-l.skip]
	fxs := l.fxBuf.View(-l.cfg.CausalTaps-l.cfg.ErrorDelay, l.cfg.NonCausalTaps-l.cfg.ErrorDelay)[:len(ww)]
	if l.cfg.Leak > 0 {
		leak := 1 - l.cfg.Leak*l.cfg.Mu
		for j, f := range fxs {
			ww[j] = ww[j]*leak - muE*f
		}
		return
	}
	for j, f := range fxs {
		ww[j] -= muE * f
	}
}

// Step is the fused per-sample fast path used by the simulator and simple
// deployments: it is exactly Adapt(ePrev); Push(xNew); AntiNoise(), but the
// adapt and anti-noise tap loops run as a single pass over contiguous
// buffer views — one read of the filtered-x window, one read of the
// reference window, one write of the weights per sample.
func (l *LANC) Step(xNew, ePrev float64) float64 { return l.StepMasked(xNew, ePrev, true) }

// StepMasked is Step plus the transport concealment flag (see PushMasked).
// While adaptation is frozen the weights — including the leak — are left
// untouched and only the anti-noise output is computed, so a loss burst
// degrades toward the passive-isolation floor instead of diverging. With
// real always true, or LossAware unset, it is bit-identical to Step.
func (l *LANC) StepMasked(xNew, ePrev float64, real bool) float64 {
	// Sequential semantics: the gradient for ePrev uses the powers,
	// filtered-x history, and loss gain as they stood before xNew arrived.
	gain := l.lossGain()
	if gain == 0 {
		l.noteMask(real)
		l.pushSignal(xNew)
		a := l.AntiNoise()
		if l.cfg.Profiling && l.profileStep(xNew) {
			a = l.AntiNoise()
		}
		return a
	}
	e := l.clipError(ePrev)
	muE := l.effectiveMu() * e * gain
	l.noteMask(real)
	l.pushSignal(xNew)
	// Post-push, every pre-push sample sits one slot deeper; the buffers'
	// extra history slot keeps the oldest gradient sample addressable.
	// Slicing off the LimitNonCausal skip (the tail) leaves the active
	// prefix with the same tap↔sample pairing; at skip == 0 these are the
	// full windows.
	ww := l.w[:len(l.w)-l.skip]
	fxs := l.fxBuf.View(-l.cfg.CausalTaps-l.cfg.ErrorDelay-1, l.cfg.NonCausalTaps-l.cfg.ErrorDelay-1)[:len(ww)]
	xs := l.xBuf.View(-l.cfg.CausalTaps, l.cfg.NonCausalTaps)[:len(ww)]
	var a float64
	// Both tap loops below are unrolled 4× with a single accumulator and
	// strictly sequential adds from the most-future tap down: the
	// evaluation order per tap is exactly the rolled loop's, so the output
	// is bit-identical. The 4-wide subslices carry no bounds checks.
	k := len(ww)
	if l.cfg.Leak > 0 {
		leak := 1 - l.cfg.Leak*l.cfg.Mu
		for ; k >= 4; k -= 4 {
			w4 := ww[k-4 : k : k]
			f4 := fxs[k-4 : k : k]
			x4 := xs[k-4 : k : k]
			wi := w4[3]*leak - muE*f4[3]
			w4[3] = wi
			a += wi * x4[3]
			wi = w4[2]*leak - muE*f4[2]
			w4[2] = wi
			a += wi * x4[2]
			wi = w4[1]*leak - muE*f4[1]
			w4[1] = wi
			a += wi * x4[1]
			wi = w4[0]*leak - muE*f4[0]
			w4[0] = wi
			a += wi * x4[0]
		}
		for j := k - 1; j >= 0; j-- {
			wi := ww[j]*leak - muE*fxs[j]
			ww[j] = wi
			a += wi * xs[j]
		}
	} else {
		for ; k >= 4; k -= 4 {
			w4 := ww[k-4 : k : k]
			f4 := fxs[k-4 : k : k]
			x4 := xs[k-4 : k : k]
			wi := w4[3] - muE*f4[3]
			w4[3] = wi
			a += wi * x4[3]
			wi = w4[2] - muE*f4[2]
			w4[2] = wi
			a += wi * x4[2]
			wi = w4[1] - muE*f4[1]
			w4[1] = wi
			a += wi * x4[1]
			wi = w4[0] - muE*f4[0]
			w4[0] = wi
			a += wi * x4[0]
		}
		for j := k - 1; j >= 0; j-- {
			wi := ww[j] - muE*fxs[j]
			ww[j] = wi
			a += wi * xs[j]
		}
	}
	if l.cfg.Profiling {
		if l.profileStep(xNew) {
			// A cached filter was swapped in for this very sample; the
			// anti-noise must come from the incoming profile's weights.
			a = l.AntiNoise()
		}
	}
	return a
}

// Weights returns a copy of h_AF indexed so that Weights()[i] is the tap
// for k = i − NonCausalTaps.
func (l *LANC) Weights() []float64 {
	out := slices.Clone(l.w)
	slices.Reverse(out)
	return out
}

// SetWeights loads weights indexed as Weights returns them (e.g. from a
// handoff snapshot). Taps disabled by LimitNonCausal are forced back to
// zero.
func (l *LANC) SetWeights(w []float64) error {
	if len(w) != len(l.w) {
		return fmt.Errorf("core: weight length %d != %d", len(w), len(l.w))
	}
	copy(l.w, w)
	slices.Reverse(l.w)
	l.zeroSkipped()
	return nil
}

// LimitNonCausal shrinks the live non-causal tap window to at most n future
// taps, zeroing the most-future taps beyond it; n ≥ N restores the full
// window. graph's window owner shrinks it on the DEGRADED rung, when the
// link still delivers frames but the lookahead budget no longer covers
// the full window, and under fleet pressure: the far-future taps — the
// ones a late frame starves first — are parked at zero while the
// near-future and causal taps keep adapting.
// Re-widening is graceful: re-enabled taps resume from zero. With the full
// window active the canceller is bit-identical to one without this call.
func (l *LANC) LimitNonCausal(n int) {
	if n < 0 {
		n = 0
	}
	if n > l.cfg.NonCausalTaps {
		n = l.cfg.NonCausalTaps
	}
	l.skip = l.cfg.NonCausalTaps - n
	l.zeroSkipped()
}

// ActiveNonCausal returns how many non-causal taps are currently live
// (N unless LimitNonCausal shrank the window).
func (l *LANC) ActiveNonCausal() int { return l.cfg.NonCausalTaps - l.skip }

// zeroSkipped re-establishes the w[len(w)-skip:] == 0 invariant after
// bulk weight loads.
func (l *LANC) zeroSkipped() {
	clear(l.w[len(l.w)-l.skip:])
}

// Switches returns how many predictive filter swaps the profiler has
// performed.
func (l *LANC) Switches() int { return l.switches }

// Reset clears all adaptation and profiling state.
func (l *LANC) Reset() {
	for i := range l.w {
		l.w[i] = 0
	}
	l.xBuf.Reset()
	l.fxBuf.Reset()
	l.sec.Reset()
	l.pre = l.pre[:0]
	l.preNext = 0
	l.fxPow = 0
	l.xPow = 0
	l.powAge = 0
	l.errVar = 0
	l.concealGuard = 0
	l.profileGuard = 0
	l.rampLeft = 0
	l.rampLen = 0
	l.winFill = 0
	l.hopCount = 0
	l.smPrimed = false
	l.smLevel = 0
	l.currentID = 0
	l.pendingID = 0
	l.pendingRun = 0
	l.switches = 0
	if l.cfg.Profiling {
		// Resetting the existing classifier (rather than constructing a new
		// one and discarding its error) keeps Reset infallible: the config
		// was already validated in New.
		l.classifier.Reset()
		l.cache = profile.NewFilterCache()
		for i := range l.window {
			l.window[i] = 0
		}
	}
}

// profileStep slides the raw-signal window (which ends at the most-future
// sample) and, every hop, classifies it. On a profile change it caches the
// outgoing filter and loads the cached filter for the incoming profile.
// It reports whether a cached filter was copied into the live weights, so
// the fused Step knows to recompute the anti-noise output.
func (l *LANC) profileStep(xNew float64) bool {
	copy(l.window, l.window[1:])
	l.window[len(l.window)-1] = xNew
	if l.winFill < len(l.window) {
		l.winFill++
		return false
	}
	l.hopCount++
	if l.hopCount < l.cfg.ProfileHop {
		return false
	}
	l.hopCount = 0
	// A concealed sample still inside the signature window would make any
	// window look quieter than the room is (worst case: a long burst
	// classifies as silence and swaps the filter out mid-noise). Hold the
	// current profile until the window holds only real samples again.
	if l.profileGuard > 0 {
		return false
	}
	sig, err := profile.Compute(l.window, l.cfg.SampleRate, profileBands)
	if err != nil {
		return false
	}
	// Exponentially smooth the signature across hops so syllable-scale
	// texture (voiced vs fricative frames of the same talker) does not
	// masquerade as a profile change.
	const alpha = 0.4
	if !l.smPrimed || sig.Silent != (l.smLevel < profile.SilenceFloor) {
		l.smBands = append(l.smBands[:0], sig.Bands...)
		l.smLevel = sig.Level
		l.smPrimed = true
	} else {
		for i := range l.smBands {
			if i < len(sig.Bands) {
				l.smBands[i] = (1-alpha)*l.smBands[i] + alpha*sig.Bands[i]
			}
		}
		l.smLevel = (1-alpha)*l.smLevel + alpha*sig.Level
	}
	smoothed := profile.Signature{
		Bands:  l.smBands,
		Level:  l.smLevel,
		Silent: l.smLevel < profile.SilenceFloor,
	}
	id, _ := l.classifier.Classify(smoothed)
	if id == l.currentID {
		l.pendingRun = 0
		return false
	}
	// Require two consecutive hops agreeing on the new profile before
	// switching, so syllable-scale fluctuations do not thrash the cache.
	if id != l.pendingID {
		l.pendingID = id
		l.pendingRun = 1
		return false
	}
	l.pendingRun++
	if l.pendingRun < 2 {
		return false
	}
	// Imminent transition: cache the converged filter for the outgoing
	// profile and preload the incoming one if we have seen it before. The
	// cache is private to this LANC, so it holds the window-order taps.
	l.cache.Store(l.currentID, l.w)
	loaded := false
	if cached := l.cache.Load(id); cached != nil {
		copy(l.w, cached)
		l.zeroSkipped()
		loaded = true
	}
	l.currentID = id
	l.pendingRun = 0
	l.switches++
	return loaded
}
