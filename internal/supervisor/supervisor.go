package supervisor

import (
	"fmt"

	"mute/internal/core"
	"mute/internal/headphone"
	"mute/internal/telemetry"
)

// State is a rung of the degradation ladder, ordered healthiest first.
type State int

const (
	// StateLANC is full lookahead-aware cancellation.
	StateLANC State = iota
	// StateDegraded is LANC with a shrunken non-causal tap window.
	StateDegraded
	// StateFallback is the local causal headphone canceller (a
	// zero-lookahead LANC).
	StateFallback
	// StatePassthrough mutes the anti-noise entirely.
	StatePassthrough
	numStates
)

// String names the state for traces and reports.
func (s State) String() string {
	switch s {
	case StateLANC:
		return "LANC"
	case StateDegraded:
		return "DEGRADED"
	case StateFallback:
		return "FALLBACK"
	case StatePassthrough:
		return "PASSTHROUGH"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// passthroughFactor demotes FALLBACK to PASSTHROUGH when the fallback's
// residual power EWMA exceeds this multiple of the open-ear power EWMA:
// the fallback is then actively hurting.
const passthroughFactor = 4

// Config parameterizes the supervisor. DefaultConfig fills every field the
// caller leaves zero.
type Config struct {
	// EWMAAlpha is the health estimator's smoothing constant (default
	// 1/256 ≈ a 32 ms horizon at 8 kHz).
	EWMAAlpha float64
	// DegradeThreshold is the concealment ratio above which LANC demotes
	// to DEGRADED (default 0.05).
	DegradeThreshold float64
	// FallbackThreshold is the concealment ratio above which the ladder
	// demotes to FALLBACK (default 0.25).
	FallbackThreshold float64
	// StarvationRun is a consecutive-concealed run that forces an
	// immediate demotion to FALLBACK, bypassing the dwell — a dead link
	// should not wait out a ratio filter (default: the wrapped filter's
	// window length N+L+1).
	StarvationRun int
	// DownDwell is how many consecutive samples a threshold breach must
	// persist before a demotion fires (default 64).
	DownDwell int
	// UpDwell is the healthy run required before any promotion
	// (default 800, 100 ms at 8 kHz).
	UpDwell int
	// ProbeInitial is the first reacquisition probe delay in samples
	// after entering FALLBACK or PASSTHROUGH (default 400).
	ProbeInitial int
	// ProbeMax caps the exponential probe backoff (default 8000).
	ProbeMax int
	// CrossfadeSamples is the transition crossfade length (default 64,
	// 8 ms at 8 kHz — comfortably click-free, short enough that the old
	// rung's stale anti-noise barely lingers).
	CrossfadeSamples int
	// DegradedFraction is the fraction of the non-causal window kept
	// live in DEGRADED (default 0.5).
	DegradedFraction float64
	// DriftDegradePPM demotes LANC to DEGRADED while the estimated clock
	// skew magnitude reported via ObserveDrift stays at or above it, and
	// blocks promotions until the skew falls back under — misaligned
	// far-future taps are the first casualties of drift, exactly the taps
	// DEGRADED parks (default 250). Ignored until ObserveDrift is called,
	// so drift-blind deployments are unchanged.
	DriftDegradePPM float64
	// DriftFallbackPPM demotes to FALLBACK: past it no realizable tap
	// window stays aligned and the local causal canceller is the better
	// ear (default 4× DriftDegradePPM).
	DriftFallbackPPM float64
	// Trace, when non-nil, receives supervisor events on the sample
	// clock under telemetry.StageSupervisor.
	Trace *telemetry.Trace
}

// DefaultConfig returns the standard supervisor tuning for a canceller
// with the given tap counts.
func DefaultConfig() Config {
	c := Config{}
	c.fill(32 + 160)
	return c
}

// fill applies defaults; window is the wrapped filter's N+L.
func (c *Config) fill(window int) {
	if c.EWMAAlpha <= 0 {
		c.EWMAAlpha = 1.0 / 256
	}
	if c.DegradeThreshold <= 0 {
		c.DegradeThreshold = 0.05
	}
	if c.FallbackThreshold <= 0 {
		c.FallbackThreshold = 0.25
	}
	if c.StarvationRun <= 0 {
		c.StarvationRun = window + 1
	}
	if c.DownDwell <= 0 {
		c.DownDwell = 64
	}
	if c.UpDwell <= 0 {
		c.UpDwell = 800
	}
	if c.ProbeInitial <= 0 {
		c.ProbeInitial = 400
	}
	if c.ProbeMax < c.ProbeInitial {
		c.ProbeMax = 8000
		if c.ProbeMax < c.ProbeInitial {
			c.ProbeMax = c.ProbeInitial
		}
	}
	if c.CrossfadeSamples <= 0 {
		c.CrossfadeSamples = 64
	}
	if c.DegradedFraction <= 0 || c.DegradedFraction >= 1 {
		c.DegradedFraction = 0.5
	}
	if c.DriftDegradePPM <= 0 {
		c.DriftDegradePPM = 250
	}
	if c.DriftFallbackPPM <= 0 {
		c.DriftFallbackPPM = 4 * c.DriftDegradePPM
	}
}

// validate rejects nonsensical explicit settings.
func (c Config) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"EWMAAlpha", c.EWMAAlpha}, {"DegradeThreshold", c.DegradeThreshold}, {"FallbackThreshold", c.FallbackThreshold}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("supervisor: %s %g outside [0, 1]", p.name, p.v)
		}
	}
	if c.FallbackThreshold < c.DegradeThreshold {
		return fmt.Errorf("supervisor: fallback threshold %g below degrade threshold %g",
			c.FallbackThreshold, c.DegradeThreshold)
	}
	if c.DriftFallbackPPM < c.DriftDegradePPM {
		return fmt.Errorf("supervisor: drift fallback threshold %g ppm below degrade threshold %g",
			c.DriftFallbackPPM, c.DriftDegradePPM)
	}
	return nil
}

// Transition is one recorded ladder move.
type Transition struct {
	// At is the sample-clock time of the move.
	At int64
	// From and To are the rungs.
	From, To State
}

// Report summarizes a supervised run.
type Report struct {
	// Transitions lists every ladder move in order.
	Transitions []Transition
	// TimeInState counts samples spent on each rung, indexed by State.
	TimeInState [numStates]int64
	// Probes counts reacquisition probes fired; FailedProbes the subset
	// that found the link still unhealthy and doubled the backoff.
	Probes, FailedProbes int
	// WarmStarts counts fallback activations seeded from LANC's causal
	// taps.
	WarmStarts int
	// TaintedSuppressed counts crossfade samples where the LANC leg was
	// muted because concealed reference samples sat in its anti-noise
	// window.
	TaintedSuppressed int64
	// FinalState is the rung at the end of the run.
	FinalState State
	// ConcealEWMA is the final smoothed concealment ratio.
	ConcealEWMA float64
}

// Publish adds the report's counters to reg: supervisor.transitions,
// .probes, .failed_probes, .warm_starts, .tainted_suppressed, and one
// supervisor.time_in_<STATE> per rung (summing to the run length).
// Every supervised run publishes through here, so the series set cannot
// differ between call sites.
func (r Report) Publish(reg *telemetry.Registry) {
	reg.Counter("supervisor.transitions").Add(int64(len(r.Transitions)))
	reg.Counter("supervisor.probes").Add(int64(r.Probes))
	reg.Counter("supervisor.failed_probes").Add(int64(r.FailedProbes))
	reg.Counter("supervisor.warm_starts").Add(int64(r.WarmStarts))
	reg.Counter("supervisor.tainted_suppressed").Add(r.TaintedSuppressed)
	for st, samples := range r.TimeInState {
		reg.Counter("supervisor.time_in_" + State(st).String()).Add(samples)
	}
}

// Supervisor drives one canceller pair through the degradation ladder.
// It is not safe for concurrent use; one instance per simulated ear.
type Supervisor struct {
	cfg  Config
	lanc *core.LANC
	fb   *headphone.ANC

	h     LinkHealth
	state State
	t     int64 // sample clock

	breachRun  int // consecutive samples the active down-threshold is breached
	taint      int // samples until the last concealed sample leaves LANC's window
	window     int // N+L of the wrapped LANC
	degradedN  int // non-causal taps kept live in DEGRADED
	fullN      int
	causalTaps int

	// Reacquisition probe state (FALLBACK / PASSTHROUGH only).
	probeWait int
	probeAt   int64

	// Crossfade state.
	fadeLeft int
	fadeFrom State

	// Residual-vs-open power EWMAs for the PASSTHROUGH demotion.
	ePow, openPow float64

	// Clock-drift posture fed by ObserveDrift; inert until the first call.
	driftPPM   float64
	driftStale int
	driftSeen  bool

	rep Report
}

// driftStaleLimit is how many consecutive unestimable drift observations
// (estimator unlocked or starved mid-run) the supervisor tolerates before
// treating the unknown skew as a degrade-level breach: an unestimable
// clock is too risky for the full window but not proof the link is dead.
const driftStaleLimit = 16

// ObserveDrift feeds the supervisor the drift estimator's view, once per
// estimator update window: ppm is the estimated relay-vs-ear skew
// magnitude (sign is irrelevant to alignment damage) and estimable is
// whether the estimate is current (estimator locked and fed). Excess
// drift joins the concealment health estimator in the ladder rules:
// sustained skew at or above DriftDegradePPM demotes LANC to DEGRADED,
// at or above DriftFallbackPPM to FALLBACK, and promotions are blocked
// until the skew clears. Never calling it leaves the ladder exactly as
// before drift awareness existed.
func (s *Supervisor) ObserveDrift(ppm float64, estimable bool) {
	if ppm < 0 {
		ppm = -ppm
	}
	if estimable {
		s.driftPPM = ppm
		s.driftStale = 0
		s.driftSeen = true
		return
	}
	if s.driftSeen && s.driftStale <= driftStaleLimit {
		s.driftStale++
	}
}

// driftExcess reports whether the drift posture breaches a ladder
// threshold. A persistently unestimable clock counts as a degrade-level
// breach only.
func (s *Supervisor) driftExcess(threshold float64) bool {
	if !s.driftSeen {
		return false
	}
	if s.driftStale > driftStaleLimit {
		return threshold <= s.cfg.DriftDegradePPM
	}
	return s.driftPPM >= threshold
}

// New wraps a canceller and its local fallback in a supervisor. Both must
// be dedicated to this supervisor: it owns their weight loads and window
// limits from here on.
func New(cfg Config, lanc *core.LANC, fallback *headphone.ANC) (*Supervisor, error) {
	if lanc == nil || fallback == nil {
		return nil, fmt.Errorf("supervisor: needs both a LANC and a fallback canceller")
	}
	window := lanc.NonCausalTaps() + lanc.CausalTaps()
	cfg.fill(window)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:        cfg,
		lanc:       lanc,
		fb:         fallback,
		h:          NewLinkHealth(cfg.EWMAAlpha),
		window:     window,
		fullN:      lanc.NonCausalTaps(),
		causalTaps: lanc.CausalTaps(),
	}
	s.degradedN = int(cfg.DegradedFraction * float64(s.fullN))
	return s, nil
}

// Report returns the run summary so far.
func (s *Supervisor) Report() Report {
	r := s.rep
	r.FinalState = s.state
	r.ConcealEWMA = s.h.EWMA()
	r.Transitions = append([]Transition(nil), s.rep.Transitions...)
	return r
}

// Step advances one sample period. fwd is the wirelessly forwarded
// reference sample x(t+N) (concealment-filled when real is false), local
// is the sample the ear-cup reference microphone hears now — the fallback's
// wire-free reference — and ePrev is the previous residual. It returns the
// anti-noise sample to play. On a clean link the supervisor stays in
// StateLANC and the output is bit-identical to calling the wrapped LANC's
// StepMasked directly.
func (s *Supervisor) Step(fwd, local, ePrev float64, real bool) float64 {
	s.h.Observe(real)
	if !real {
		// A concealed sample enters LANC's anti-noise window at +N and
		// takes N+L+1 pushes to slide out of it.
		s.taint = s.window + 1
	} else if s.taint > 0 {
		s.taint--
	}
	// Residual/open power EWMAs prime the PASSTHROUGH demotion; same
	// alpha as the health estimator.
	s.ePow += s.cfg.EWMAAlpha * (ePrev*ePrev - s.ePow)
	s.openPow += s.cfg.EWMAAlpha * (local*local - s.openPow)

	s.maybeTransition()
	s.rep.TimeInState[s.state]++

	// Advance the legs. The wrapped LANC always consumes the forwarded
	// sample so its reference and filtered-x windows stay time-aligned for
	// a later promotion; it only adapts while its output drives the
	// residual (LANC and DEGRADED rungs).
	var outLANC, outFB float64
	fadingLANC := s.fadeLeft > 0 && s.fadeFrom <= StateDegraded
	fadingFB := s.fadeLeft > 0 && s.fadeFrom == StateFallback
	if s.state <= StateDegraded {
		outLANC = s.lanc.StepMasked(fwd, ePrev, real)
	} else {
		s.lanc.PushMasked(fwd, real)
		if fadingLANC {
			// The FALLBACK guarantee: a fading-out LANC leg is muted while
			// concealed samples contaminate its window, so concealed-
			// reference anti-noise never reaches the speaker from here.
			if s.taint > 0 {
				s.rep.TaintedSuppressed++
			} else {
				outLANC = s.lanc.AntiNoise()
			}
		}
	}
	if s.state == StateFallback {
		outFB = s.fb.Step(local, ePrev)
	} else if fadingFB {
		// Keep the fading-out fallback leg audible without adapting it on
		// a residual that no longer reflects its output.
		outFB = s.fb.Emit(local)
	}

	cur := legFor(s.state, outLANC, outFB)
	if s.fadeLeft == 0 {
		s.t++
		return cur
	}
	prev := legFor(s.fadeFrom, outLANC, outFB)
	g := float64(s.fadeLeft) / float64(s.cfg.CrossfadeSamples+1)
	s.fadeLeft--
	s.t++
	return g*prev + (1-g)*cur
}

// legFor selects a rung's output from the computed legs.
func legFor(st State, outLANC, outFB float64) float64 {
	switch st {
	case StateLANC, StateDegraded:
		return outLANC
	case StateFallback:
		return outFB
	default: // PASSTHROUGH
		return 0
	}
}

// maybeTransition evaluates the ladder rules for the current sample.
func (s *Supervisor) maybeTransition() {
	switch s.state {
	case StateLANC, StateDegraded:
		// A hard starvation run is a dead link: demote immediately.
		if s.h.ConcealedRun() >= s.cfg.StarvationRun {
			s.moveTo(StateFallback)
			return
		}
		down := s.cfg.DegradeThreshold
		dppm := s.cfg.DriftDegradePPM
		if s.state == StateDegraded {
			down = s.cfg.FallbackThreshold
			dppm = s.cfg.DriftFallbackPPM
		}
		if s.h.EWMA() >= down || s.driftExcess(dppm) {
			s.breachRun++
			if s.breachRun >= s.cfg.DownDwell {
				s.moveTo(s.state + 1)
			}
			return
		}
		s.breachRun = 0
		if s.state == StateDegraded &&
			s.h.EWMA() < s.cfg.DegradeThreshold/2 && s.h.CleanRun() >= s.cfg.UpDwell &&
			!s.driftExcess(s.cfg.DriftDegradePPM) {
			// Hysteresis: promotion needs the ratio well under the demote
			// threshold plus a sustained clean run (and no drift breach).
			s.moveTo(StateLANC)
		}
	case StateFallback:
		if s.openPow > 0 && s.ePow > passthroughFactor*s.openPow {
			s.breachRun++
			if s.breachRun >= s.cfg.DownDwell {
				s.moveTo(StatePassthrough)
				return
			}
		} else {
			s.breachRun = 0
		}
		s.probe()
	case StatePassthrough:
		s.probe()
	}
}

// probe runs the exponential-backoff reacquisition check for the bottom
// rungs. A probe that finds the link healthy promotes; one that does not
// doubles the wait.
func (s *Supervisor) probe() {
	if s.t < s.probeAt {
		return
	}
	s.rep.Probes++
	healthy := s.h.CleanRun() >= s.cfg.UpDwell && s.taint == 0 &&
		s.h.EWMA() < s.cfg.DegradeThreshold/2 &&
		!s.driftExcess(s.cfg.DriftDegradePPM)
	if healthy {
		if s.state == StatePassthrough {
			s.moveTo(StateFallback)
		} else {
			s.moveTo(StateLANC)
		}
		return
	}
	if s.h.CleanRun() >= s.cfg.UpDwell && s.taint == 0 &&
		s.state == StateFallback && s.h.EWMA() < s.cfg.FallbackThreshold/2 &&
		!s.driftExcess(s.cfg.DriftFallbackPPM) {
		// Partially recovered: the link delivers frames again but the
		// smoothed loss rate is still too high for the full window.
		s.moveTo(StateDegraded)
		return
	}
	s.rep.FailedProbes++
	s.probeWait *= 2
	if s.probeWait > s.cfg.ProbeMax {
		s.probeWait = s.cfg.ProbeMax
	}
	s.probeAt = s.t + int64(s.probeWait)
}

// moveTo performs a transition: filter reconfiguration, crossfade arming,
// bookkeeping, and the trace event.
func (s *Supervisor) moveTo(to State) {
	from := s.state
	if to == from {
		return
	}
	switch to {
	case StateLANC:
		s.lanc.LimitNonCausal(s.fullN)
	case StateDegraded:
		s.lanc.LimitNonCausal(s.degradedN)
	case StateFallback:
		// Restore the full window so a later promotion returns to the
		// paper's filter, and seed the local fallback from LANC's causal
		// taps: the room's causal inverse is the part both filters share.
		s.lanc.LimitNonCausal(s.fullN)
		s.fb.Reset()
		s.fb.WarmStart(s.lanc.Weights()[s.fullN:])
		s.rep.WarmStarts++
	}
	if to == StateFallback || to == StatePassthrough {
		s.probeWait = s.cfg.ProbeInitial
		s.probeAt = s.t + int64(s.probeWait)
	}
	s.state = to
	s.breachRun = 0
	s.fadeLeft = s.cfg.CrossfadeSamples
	s.fadeFrom = from
	s.rep.Transitions = append(s.rep.Transitions, Transition{At: s.t, From: from, To: to})
	if s.cfg.Trace != nil {
		s.cfg.Trace.Record(s.t, telemetry.StageSupervisor, "transition", map[string]float64{
			"from":         float64(from),
			"to":           float64(to),
			"conceal_ewma": s.h.EWMA(),
			"conceal_run":  float64(s.h.ConcealedRun()),
		})
	}
}

// TraceState records the supervisor's periodic observable state — rung,
// health estimate, probe posture — under telemetry.StageSupervisor. All
// reads; the ladder is unaffected.
func (s *Supervisor) TraceState(tr *telemetry.Trace, t int64) {
	if tr == nil {
		return
	}
	tr.Record(t, telemetry.StageSupervisor, "state", map[string]float64{
		"state":        float64(s.state),
		"conceal_ewma": s.h.EWMA(),
		"conceal_run":  float64(s.h.ConcealedRun()),
		"clean_run":    float64(s.h.CleanRun()),
		"fade_left":    float64(s.fadeLeft),
		"taint":        float64(s.taint),
	})
}
