package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/headphone"
	"mute/internal/rf"
	"mute/internal/stream"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
)

// Scheme selects which cancellation system is simulated.
type Scheme int

// The paper's four comparison schemes (Section 5.1).
const (
	// MUTEHollow is the open-ear MUTE device: LANC with wireless
	// lookahead, no passive material.
	MUTEHollow Scheme = iota
	// MUTEPassive is MUTE's LANC running inside the Bose ear cup
	// ("MUTE+Passive").
	MUTEPassive
	// BoseActive is the conventional headphone's ANC contribution alone
	// (measured under the ear cup, ANC on vs off).
	BoseActive
	// BoseOverall is the conventional headphone end to end: ANC plus
	// passive isolation, versus the open ear.
	BoseOverall
	// PassiveOnly is the ear cup with ANC off (a control scheme).
	PassiveOnly
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case MUTEHollow:
		return "MUTE_Hollow"
	case MUTEPassive:
		return "MUTE+Passive"
	case BoseActive:
		return "Bose_Active"
	case BoseOverall:
		return "Bose_Overall"
	case PassiveOnly:
		return "Passive_Only"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// usesLANC reports whether the scheme runs MUTE's algorithm.
func (s Scheme) usesLANC() bool { return s == MUTEHollow || s == MUTEPassive }

// usesPassive reports whether the ear is covered by the passive cup.
func (s Scheme) usesPassive() bool { return s != MUTEHollow }

// Params configures a simulation run.
type Params struct {
	// Scene is the physical layout.
	Scene Scene
	// EarEnd, when non-nil and away from Scene.EarPos, moves the ear
	// device in a straight line from Scene.EarPos to EarEnd over the run
	// (Section 6, head mobility): the source→ear channels are re-sampled
	// every hopSeconds and cross-faded, and the canceller must track
	// them. The lookahead is budgeted at the start position.
	EarEnd *acoustics.Point
	// Duration is the simulated time in seconds.
	Duration float64

	// UseFMLink routes the reference signal through the full FM chain
	// (modulator, impaired channel, demodulator). When false an ideal
	// forwarding link (relay analog chain only) is used — much faster,
	// and the default for parameter sweeps.
	UseFMLink bool
	// FM configures the FM link when enabled.
	FM rf.FMParams
	// Channel configures RF impairments when the FM link is enabled.
	Channel rf.ChannelParams
	// Relay configures the relay analog front end.
	Relay rf.RelayParams

	// Pipeline is the MUTE ear-device processing latency (Equation 3) —
	// the TI DSP board's ADC/DSP/DAC/speaker chain.
	Pipeline core.PipelineDelays
	// ExtraReferenceDelay injects additional delay (samples) into the
	// forwarded reference — the paper's delayed-line trick for shrinking
	// lookahead without moving hardware (Figure 16).
	ExtraReferenceDelay int
	// ControlLoopDelaySamples is the Tabletop variant's control loop
	// (Figure 10(a)): the DSP sits at the relay, so the anti-noise takes a
	// downlink to the ear and the error signal an uplink back, in samples
	// of digital framing. The downlink half (L/2) adds to the speaker
	// latency and the secondary path; the uplink half (L − L/2) delays the
	// fed-back error. 0 is the wall relay, with the DSP at the ear.
	ControlLoopDelaySamples int
	// LossTransport, when non-nil, routes the forwarded reference through
	// the packetized transport (LANC schemes only), pulled through the
	// live ear's jitter-buffer and drift sources; its playout prime comes
	// out of the lookahead, and the canceller sees its concealment mask.
	LossTransport *LossTransport
	// Supervise runs the LANC schemes under the degradation-ladder
	// supervisor (internal/supervisor): a link-health estimator demotes
	// the canceller through DEGRADED → FALLBACK (the local causal
	// headphone canceller, warm-started from LANC's causal taps) →
	// PASSTHROUGH as the forwarded reference degrades, and promotes it
	// back with dwell, hysteresis, and backoff probes. On a clean link the supervised run
	// is bit-identical to the unsupervised one.
	Supervise bool
	// SupervisorConfig overrides the supervisor tuning when Supervise is
	// set (nil = supervisor defaults).
	SupervisorConfig *supervisor.Config

	// ClockSkewPPM runs the relay on a skewed oscillator: its sample clock
	// deviates from the ear's by this many parts per million (positive =
	// relay fast). Any skew fault presupposes the packetized transport; a
	// default LossTransport is synthesized when none is configured.
	ClockSkewPPM float64
	// DriftCorrect steers the drift source's resampler (see
	// LossTransport.DriftCorrect); bit-identical to uncorrected on a clean
	// clock.
	DriftCorrect bool

	// BlockFDAF replaces the sample-by-sample LANC with the partitioned
	// frequency-domain canceller (core.BlockLANC): anti-noise is produced
	// in blocks of BlockSize samples with FFT-economics filtering, adapting
	// once per block. It applies to the LANC schemes only and selects the
	// canceller kind alone: the transport binds as for LANC, and
	// graph.Build refuses the stages the block canceller lacks
	// (supervision, profiling, the concealment gate, drift control and a
	// control loop) with graph.ErrUnsupported.
	BlockFDAF bool
	// BlockSize is the FDAF block size B in samples (power of two,
	// 0 = 32). The block costs no lookahead; larger blocks adapt less
	// often.
	BlockSize int

	// CausalTaps is LANC's causal filter length L.
	CausalTaps int
	// MaxNonCausalTaps caps N regardless of the available lookahead
	// (0 = no cap).
	MaxNonCausalTaps int
	// Mu is LANC's step size.
	Mu float64
	// PlainLMS disables NLMS power normalization — the classical LMS of
	// the paper's prototype, whose slower re-convergence is what makes
	// predictive profile switching valuable (Figure 8).
	PlainLMS bool
	// Profiling enables LANC's predictive filter switching, with core's
	// profiler tuning.
	Profiling bool

	// EarMicNoiseRMS is the ear-device error-microphone self-noise.
	EarMicNoiseRMS float64
	// Seed drives all stochastic components of the run.
	Seed uint64

	// Telemetry, when non-nil, receives the run's counters, gauges,
	// histograms, and wall-clock stage timers. Instrumentation is purely
	// observational: enabling it changes no output sample of the run
	// (enforced by internal/experiments' result-neutrality tests).
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records per-stage events on the sample clock —
	// capture/link block levels, LANC adaptation state, per-block residual,
	// and the lookahead budget entries — for JSONL export and the
	// golden-trace regression suite.
	Trace *telemetry.Trace
}

// DefaultParams returns the standard evaluation configuration for a scene.
func DefaultParams(scene Scene) Params {
	return Params{
		Scene:            scene,
		Duration:         12,
		FM:               rf.DefaultFMParams(),
		Channel:          rf.DefaultChannel(),
		Relay:            rf.DefaultRelayParams(),
		Pipeline:         core.DefaultPipeline(),
		CausalTaps:       160,
		MaxNonCausalTaps: 32,
		Mu:               0.05,
		Seed:             1,
	}
}

// validate checks the settings every simulated run reads and returns the
// run's length in samples.
func (p Params) validate() (int, error) {
	if err := p.Scene.Validate(); err != nil {
		return 0, err
	}
	if p.Duration <= 0 {
		return 0, fmt.Errorf("sim: duration %g must be positive", p.Duration)
	}
	if p.CausalTaps <= 0 {
		return 0, fmt.Errorf("sim: causal taps %d must be positive", p.CausalTaps)
	}
	if p.Mu <= 0 {
		return 0, fmt.Errorf("sim: mu %g must be positive", p.Mu)
	}
	if p.EarEnd != nil && !p.Scene.Room.Inside(*p.EarEnd) {
		return 0, fmt.Errorf("sim: ear path endpoint %v outside room", *p.EarEnd)
	}
	n := int(p.Duration * p.Scene.SampleRate)
	if n < 1 {
		return 0, fmt.Errorf("sim: duration too short")
	}
	return n, nil
}

// observeStage records the wall time since start on a stage timer when the
// run carries a registry.
func (p Params) observeStage(name string, start time.Time) {
	if p.Telemetry != nil {
		p.Telemetry.Timer(name).Since(start)
	}
}

// Result is the outcome of one simulated run.
type Result struct {
	// Scheme that was simulated.
	Scheme Scheme
	// Open is the measurement-microphone signal with the ear open and no
	// cancellation — the paper's reference condition.
	Open []float64
	// Off is the measurement with the scheme's passive hardware in place
	// but active cancellation disabled (equals Open for MUTE_Hollow).
	Off []float64
	// On is the measurement with the scheme fully active.
	On []float64
	// Residual is the error-microphone signal driving adaptation (equal
	// to On plus sensor noise).
	Residual []float64
	// LookaheadSamples is the geometric lookahead of the scene.
	LookaheadSamples int
	// Budget is the lookahead budget LANC ran with (zero-value for the
	// Bose schemes).
	Budget core.Budget
	// UsedNonCausalTaps is the N LANC actually ran with after applying
	// MaxNonCausalTaps.
	UsedNonCausalTaps int
	// Switches is the number of predictive filter switches (profiling
	// runs only).
	Switches int
	// Transport carries the packetized-link counters when
	// Params.LossTransport was set (nil otherwise).
	Transport *LossTransportStats
	// Supervision carries the degradation-ladder report when
	// Params.Supervise was set (nil otherwise).
	Supervision *supervisor.Report
	// BudgetSpend itemizes where the lookahead budget went, stage by
	// stage (LANC schemes only; nil for the Bose schemes, which have no
	// wireless lookahead to spend).
	BudgetSpend *telemetry.BudgetReport
	// SampleRate echoes the scene rate.
	SampleRate float64
}

// Run simulates the scheme and returns the recordings. It is the one
// path from a scene to graph.Build: the architectural variants (Tabletop's
// control loop, the smart-noise relay placement), the moving ear and the
// extra relays are Params and Scene settings of the same run.
func Run(p Params, scheme Scheme) (*Result, error) {
	n, err := p.validate()
	if err != nil {
		return nil, err
	}
	if err := p.refuse(scheme); err != nil {
		return nil, err
	}
	if p.ExtraReferenceDelay < 0 {
		return nil, fmt.Errorf("sim: negative extra reference delay %d", p.ExtraReferenceDelay)
	}
	loop := p.ControlLoopDelaySamples
	if loop < 0 {
		return nil, fmt.Errorf("sim: negative control loop delay %d", loop)
	}
	fs := p.Scene.SampleRate

	// --- Acoustic channels, relay and wireless link --------------------------
	stageStart := time.Now()
	waves := sourceWaves(p.Scene, n)
	open, err := earLeg(p, waves)
	if err != nil {
		return nil, err
	}
	p.observeStage("sim.stage.acoustics", stageStart)
	// The Bose schemes never read the forwarded reference (their mic is
	// local), so the relay's front end only runs when the canceller — or
	// an attached trace, which records forwarded block levels for every
	// scheme — consumes it.
	ref, forwarded, err := relayLeg(p, waves, p.Scene.RelayPos, p.Relay.Seed, scheme.usesLANC() || p.Trace != nil)
	if err != nil {
		return nil, err
	}
	// Relay r is captured with seed Relay.Seed + 101·r. The pipeline
	// budgets the smallest relay lookahead, so every other relay's stream
	// is held back by its lead over it.
	las := p.Scene.relayLookaheads()
	lookahead := slices.Min(las)
	extra := make([]graph.SampleSource, len(p.Scene.ExtraRelays))
	for i, pos := range p.Scene.ExtraRelays {
		_, fwd, err := relayLeg(p, waves, pos, p.Relay.Seed+101*uint64(i+1), true)
		if err != nil {
			return nil, err
		}
		extra[i] = &graph.SliceSource{Samples: delayed(fwd, las[i+1]-lookahead+p.ExtraReferenceDelay)}
	}
	stageStart = time.Now()
	forwarded = delayed(forwarded, las[0]-lookahead+p.ExtraReferenceDelay)
	p.observeStage("sim.stage.link", stageStart)

	// --- Passive isolation --------------------------------------------------
	underCup := open
	if scheme.usesPassive() {
		passive, err := headphone.PassiveIsolation(fs, headphone.DefaultPassiveTaps)
		if err != nil {
			return nil, err
		}
		// The cup model is minimum-phase (no bulk group delay), so plain
		// causal convolution is the physically faithful application. Every
		// passive scheme of a figure applies the same cup to the same open
		// field, so the render is memoized like the room acoustics.
		underCup = acousticRenders.renderSame(open, passive)
	}

	// --- Secondary (speaker → error mic) chain ------------------------------
	// The acoustic part is shared; each device adds its own latency. A
	// Tabletop's anti-noise downlink is half its control loop, charged to
	// the speaker; the uplink half delays the fed-back error.
	pipe := p.Pipeline
	pipe.Speaker += loop / 2
	delay := sampleDelay(pipe.Total()) // MUTE's TI-board pipeline
	if !scheme.usesLANC() {
		// The commercial headphone's optimized (sub-sample) latency.
		if delay, err = dsp.FractionalDelayFIR(headphone.LatencySamples); err != nil {
			return nil, err
		}
	}
	secIR, secEst, err := secondaryChain(p, delay)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Scheme:           scheme,
		Open:             open,
		Off:              underCup,
		LookaheadSamples: lookahead,
		SampleRate:       fs,
	}

	// --- Active cancellation loop -------------------------------------------
	// The cancellation pipeline is wired once in internal/graph and shared
	// with the live CLIs; the simulator binds pre-rendered acoustics and
	// the scheduled transport, whose drift source is also the control.
	stageStart = time.Now()
	var (
		transport *Transport
		tap       *graph.Tap // the traced reference as the pipeline pulled it
	)
	earNoise := audio.NewRNG(p.Seed + 23)
	on := make([]float64, n)
	residual := make([]float64, n)
	gcfg := graph.Config{
		SampleRate:          fs,
		Lookahead:           res.LookaheadSamples,
		ExtraReferenceDelay: p.ExtraReferenceDelay,
		Pipeline:            pipe,
		MaxNonCausalTaps:    p.MaxNonCausalTaps,
		ErrorDelay:          loop - loop/2,
		Canceller: graph.CancellerParams{
			CausalTaps:    p.CausalTaps,
			Mu:            p.Mu,
			PlainLMS:      p.PlainLMS,
			SecondaryPath: secEst,
			Profiling:     p.Profiling,
		},
		Supervise:        p.Supervise,
		SupervisorConfig: p.SupervisorConfig,
		Reference:        &graph.SliceSource{Samples: forwarded},
		ExtraReferences:  extra,
		Ambient:          &graph.SliceAmbient{Local: open, Cup: underCup},
		SecondaryIR:      secIR,
		NoiseRMS:         p.EarMicNoiseRMS,
		Noise:            earNoise,
		On:               on,
		Residual:         residual,
		Trace:            p.Trace,
		Telemetry:        p.Telemetry,
	}
	if p.BlockFDAF {
		// Partitioned frequency-domain kind: anti-noise is produced one
		// block at a time, adapting on the previous block's error. It
		// plans the same budget as the time-domain kind: anti-noise
		// sample t depends only on reference samples up to t.
		gcfg.FDAF = &graph.FDAFParams{BlockSize: cmp.Or(p.BlockSize, 32)}
	}
	switch {
	case scheme == PassiveOnly:
		copy(on, underCup)
		copy(residual, underCup)
	case !scheme.usesLANC():
		// The Bose schemes: the headphone's reference mic sits on the cup
		// exterior and hears the open-ear field, and the secondary chain
		// carries its physical latency. The headphone keeps its own
		// tuning and reads only the secondary-path estimate; Build
		// refuses the canceller settings it lacks.
		gcfg.Headphone = true
		gcfg.Reference = &graph.SliceSource{Samples: open}
	default:
		// The packetized transport replaces the ideal wire; its playout
		// prime delays the reference and is booked in the budget.
		skewed := p.ClockSkewPPM != 0
		var lt *LossTransport
		if p.LossTransport != nil {
			c := *p.LossTransport
			lt = &c
		} else if skewed || p.DriftCorrect {
			// Clock faults presuppose the packetized transport; synthesize
			// the default framing the drift experiments use.
			lt = &LossTransport{FrameSamples: 40, PrimeFrames: 1, LossAware: true}
		}
		if lt == nil {
			break
		}
		if p.Trace != nil && lt.Trace == nil {
			// The transport's stream/lookahead events lead the run's
			// timeline, ahead of the budget and canceller events: both
			// record privately and are spliced after the run.
			lt.Trace, gcfg.Trace = telemetry.NewTrace(), telemetry.NewTrace()
		}
		if skewed && lt.Skew == nil {
			lt.Skew = &stream.SkewParams{Seed: p.Seed + 41, PPM: p.ClockSkewPPM}
		}
		if p.DriftCorrect {
			lt.DriftCorrect = true
		}
		if transport, err = PacketizeReference(forwarded, *lt); err != nil {
			return nil, err
		}
		transport.Delay = lt.PrimeSamples()
		gcfg.PrimeSamples = transport.Delay
		if lt.DriftCorrect && lt.Skew != nil && lt.Skew.Enabled() {
			// The resampler's cubic kernel reads up to two samples of
			// future at fractional positions; with an actual skew in play
			// those positions are fractional, so the guard comes out of the
			// lookahead budget. On a clean clock positions stay integral
			// and the guard — like the resampler — is free.
			gcfg.DriftGuard = 2
		}
		gcfg.Canceller.LossAware = lt.LossAware
		if ds := transport.Drift; ds != nil {
			ds.Hold = 2 * lt.frameSamples()
			gcfg.Drift = ds
		}
		gcfg.Reference = transport
		if p.Trace != nil {
			tap = &graph.Tap{Inner: transport}
			gcfg.Reference = tap
		}
	}
	if scheme != PassiveOnly {
		pl, err := graph.Build(gcfg)
		if err != nil {
			return nil, err
		}
		res.Budget = pl.Budget
		res.UsedNonCausalTaps = pl.NonCausalTaps
		res.BudgetSpend = pl.Spend
		if err := pl.Run(n, 0); err != nil {
			return nil, err
		}
		res.Switches, _, _ = pl.AdaptState()
		res.Supervision = pl.Supervision()
	}
	if transport != nil {
		stats := transport.Finish()
		res.Transport = &stats
		if tap != nil {
			forwarded = tap.Samples
		}
		if gcfg.Trace != p.Trace {
			for _, ev := range append(transport.trace.Events(), gcfg.Trace.Events()...) {
				p.Trace.Record(ev.T, ev.Stage, ev.Name, ev.Values)
			}
		}
	}
	res.On = on
	res.Residual = residual
	if p.Telemetry != nil {
		p.Telemetry.Timer("sim.stage.cancel").Since(stageStart)
		instrumentRun(p.Telemetry, res, n)
	}
	if p.Trace != nil {
		// Post-loop block levels: reading the pre-rendered streams after
		// the fact keeps the cancellation loop itself untouched.
		traceBlockLevels(p.Trace, telemetry.StageCapture, "relay_mic", ref)
		traceBlockLevels(p.Trace, telemetry.StageLink, "forwarded", forwarded)
		traceBlockLevels(p.Trace, telemetry.StageResidual, "ear", residual)
	}
	return res, nil
}

// refuse rejects, with graph.ErrUnsupported, the settings a run would
// otherwise drop. graph.Build refuses the canceller settings the Headphone
// kind and the extra relays' banks lack, but sim binds the transport, the
// clock faults and the extra relays itself, and PassiveOnly builds no
// pipeline at all.
func (p Params) refuse(scheme Scheme) error {
	extras := len(p.Scene.ExtraRelays) > 0
	lanc, passive := scheme.usesLANC(), scheme == PassiveOnly
	who := scheme.String()
	if lanc {
		who = "extra relays"
	}
	for _, c := range []struct {
		set  bool
		name string
	}{
		{p.LossTransport != nil && (extras || !lanc), "LossTransport"},
		{p.ClockSkewPPM != 0 && (extras || !lanc), "ClockSkewPPM"},
		{p.DriftCorrect && (extras || !lanc), "DriftCorrect"},
		{extras && !lanc, "Scene.ExtraRelays"},
		{passive && p.Supervise, "Supervise"},
		{passive && p.Profiling, "Profiling"},
		{passive && p.BlockFDAF, "BlockFDAF"},
		{passive && p.ControlLoopDelaySamples > 0, "ControlLoopDelaySamples"},
	} {
		if c.set {
			return fmt.Errorf("%w: %s with %s", graph.ErrUnsupported, who, c.name)
		}
	}
	return nil
}

// delayed returns x held back by d samples (x itself when d is 0). The
// renders are shared and read-only, so the shift is a copy.
func delayed(x []float64, d int) []float64 {
	if x == nil || d == 0 {
		return x
	}
	out := make([]float64, len(x))
	if d < len(x) {
		copy(out[d:], x)
	}
	return out
}

// traceBlockLevels records one stage's per-block signal level (dB relative
// to full scale) from a pre-rendered sample stream, on the pipeline's
// trace cadence.
func traceBlockLevels(tr *telemetry.Trace, stage, name string, x []float64) {
	const block = graph.DefaultTraceBlock
	for start := 0; start < len(x); start += block {
		end := min(start+block, len(x))
		p := dsp.Power(x[start:end])
		tr.Record(int64(start), stage, name, map[string]float64{
			"power_db": dsp.DB(p + dsp.EpsilonPower),
		})
	}
}

// instrumentRun publishes a finished run's deterministic series: sample
// counts, budget gauges, the per-block residual-power histogram, and the
// transport counters as first-class series.
func instrumentRun(reg *telemetry.Registry, r *Result, n int) {
	reg.Counter("sim.runs").Inc()
	reg.Counter("sim.samples").Add(int64(n))
	reg.Gauge("sim.lookahead_samples").Set(float64(r.LookaheadSamples))
	reg.Gauge("sim.noncausal_taps").Set(float64(r.UsedNonCausalTaps))
	h := reg.Histogram("sim.residual_block_power", telemetry.HistogramOpts{Lo: 1e-12, Ratio: 10, Buckets: 14})
	const block = 512
	for start := 0; start < len(r.Residual); start += block {
		end := min(start+block, len(r.Residual))
		h.Observe(dsp.Power(r.Residual[start:end]))
	}
	if r.Transport != nil {
		r.Transport.Jitter.Publish(reg, "stream.")
		r.Transport.Link.Publish(reg, "link.")
		reg.Counter("stream.fec_recovered").Add(int64(r.Transport.FECRecovered))
		if d := r.Transport.Drift; d != nil {
			reg.Gauge("drift.est_ppm").Set(d.FinalPPM)
			reg.Gauge("drift.max_abs_ppm").Set(d.MaxAbsPPM)
			reg.Gauge("drift.final_occ_err").Set(d.FinalOccErr)
			reg.Counter("drift.rate_jumps").Add(int64(len(d.RateJumps)))
		}
	}
	if r.BudgetSpend != nil {
		for _, e := range r.BudgetSpend.Entries {
			reg.Gauge("budget." + e.Stage + "_samples").Set(float64(e.Samples))
		}
	}
	if r.Supervision != nil {
		r.Supervision.Publish(reg)
	}
}

// fmParamsFor adapts the FM parameters to the scene sample rate.
func fmParamsFor(p Params, fs float64) rf.FMParams {
	fm := p.FM
	if fm.AudioRate == 0 {
		fm = rf.DefaultFMParams()
	}
	fm.AudioRate = fs
	return fm
}

func sumStreams(streams [][]float64, n int) []float64 {
	out := make([]float64, n)
	for _, s := range streams {
		for i := 0; i < n && i < len(s); i++ {
			out[i] += s[i]
		}
	}
	return out
}

// CancellationDB computes the scheme's cancellation-vs-open spectrum
// average over [loHz, hiHz] from a result, discarding the first
// convergence fraction of the recording.
func (r *Result) CancellationDB(loHz, hiHz float64) (float64, error) {
	skip := len(r.On) / 2
	pOn, err := dsp.WelchPSD(r.On[skip:], r.SampleRate, 1024)
	if err != nil {
		return 0, err
	}
	pOff, err := dsp.WelchPSD(r.Open[skip:], r.SampleRate, 1024)
	if err != nil {
		return 0, err
	}
	num := pOn.BandPower(loHz, hiHz)
	den := pOff.BandPower(loHz, hiHz)
	return dsp.DB((num + dsp.EpsilonPower) / (den + dsp.EpsilonPower)), nil
}

// ActiveGainDB computes the active-only contribution (On vs Off, both under
// the same passive hardware) over [loHz, hiHz] — the Bose_Active quantity.
func (r *Result) ActiveGainDB(loHz, hiHz float64) (float64, error) {
	skip := len(r.On) / 2
	pOn, err := dsp.WelchPSD(r.On[skip:], r.SampleRate, 1024)
	if err != nil {
		return 0, err
	}
	pOff, err := dsp.WelchPSD(r.Off[skip:], r.SampleRate, 1024)
	if err != nil {
		return 0, err
	}
	num := pOn.BandPower(loHz, hiHz)
	den := pOff.BandPower(loHz, hiHz)
	return dsp.DB((num + dsp.EpsilonPower) / (den + dsp.EpsilonPower)), nil
}

// SteadyState returns the second half of signal x — the converged portion
// used for spectra.
func SteadyState(x []float64) []float64 { return x[len(x)/2:] }
