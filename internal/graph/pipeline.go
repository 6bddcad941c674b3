package graph

import (
	"errors"
	"fmt"

	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/headphone"
	"mute/internal/stream"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
)

// Leak is the LMS leakage of every LANC Build wires. It is fixed here, not
// a CancellerParams field, so the policy constant cannot fork between
// deployments.
const Leak = 0.0005

// DefaultTraceBlock is the trace cadence, and Run's block, in samples
// unless Config.TraceBlock sets another (64 ms at 8 kHz).
const DefaultTraceBlock = 512

// CancellerParams is the canceller-policy slice of the pipeline
// configuration: the tuning a caller legitimately varies. Everything
// else about the canceller — leakage, the non-causal tap count (planned
// from the lookahead budget), the sample rate, the profiler and loss-ramp
// tuning — is fixed by Build or core, so a policy constant cannot fork
// between deployments.
type CancellerParams struct {
	// CausalTaps is LANC's causal filter length L.
	CausalTaps int
	// Mu is the adaptation step size.
	Mu float64
	// PlainLMS disables NLMS power normalization (the paper's prototype).
	PlainLMS bool
	// SecondaryPath is the estimated speaker→error-mic chain ĥ_se.
	SecondaryPath []float64
	// LossAware gates adaptation on the concealment mask; the post-gap
	// re-ramp length is core's default.
	LossAware bool
	// Profiling enables predictive filter switching with core's profiler
	// tuning.
	Profiling bool
}

// FDAFParams selects the partitioned frequency-domain canceller instead
// of the sample-by-sample LANC: anti-noise is produced in blocks of
// BlockSize samples from the pulled block, and each block adapts on the
// previous block's errors.
type FDAFParams struct {
	// BlockSize is the FDAF block size B in samples (power of two).
	BlockSize int
	// Mu is the per-bin normalized step (0 = core.DefaultBlockMu).
	Mu float64
}

// Config wires one cancellation pipeline. The required bindings are the
// sample-clock inputs (Reference, Ambient) and the lookahead geometry;
// everything else — supervisor, drift control, trace, telemetry, output
// taps — is optional and nil-safe.
type Config struct {
	// SampleRate is the pipeline clock in Hz.
	SampleRate float64
	// Lookahead is the acoustic lookahead in samples the wireless leg
	// provides — the budget every downstream stage spends from.
	Lookahead int
	// PrimeSamples is the playout buffering the packetized transport
	// already consumed (0 for a live receiver, whose jitter buffer primes
	// on the wire). A DriftSource bound as Drift steers its read position
	// to this prime plus one frame behind the relay.
	PrimeSamples int
	// ExtraReferenceDelay is the deliberate delayed-line injection
	// (Figure 16) in samples.
	ExtraReferenceDelay int
	// DriftGuard is the drift resampler's interpolation future (2 when a
	// real skew is being corrected, else 0).
	DriftGuard int
	// Pipeline is the ear device's ADC/DSP/DAC/speaker latency
	// (Equation 3).
	Pipeline core.PipelineDelays
	// MaxNonCausalTaps caps the planned N regardless of lookahead
	// (0 = no cap).
	MaxNonCausalTaps int
	// Canceller is the sample-domain canceller policy.
	Canceller CancellerParams
	// FDAF, when non-nil, replaces the sample-domain canceller with the
	// block frequency-domain one. Incompatible with Supervise, Drift,
	// Canceller.Profiling, Canceller.LossAware and ErrorDelay (Build
	// returns ErrUnsupported).
	FDAF *FDAFParams
	// Headphone replaces LANC with the conventional headphone canceller
	// (headphone.ANC, the Bose-class baseline): a zero-lookahead LANC
	// with the product's own tuning, stepped on the Reference — the cup
	// microphone — around Canceller.SecondaryPath. It has no wireless
	// lookahead, so no budget is planned and the lookahead fields and the
	// rest of Canceller are not read. Incompatible with FDAF, Supervise,
	// Drift, Canceller.Profiling, Canceller.LossAware and ErrorDelay
	// (Build returns ErrUnsupported).
	Headphone bool
	// ErrorDelay is how many samples late the measured error reaches the
	// adaptation — the uplink leg of the Tabletop variant, whose DSP sits
	// at the relay. The fed-back error passes through a delay line and
	// the canceller pairs it with equally stale filtered-x history.
	// Incompatible with Supervise and FDAF (Build returns ErrUnsupported).
	ErrorDelay int

	// Supervise runs the canceller under the degradation ladder.
	Supervise bool
	// SupervisorConfig overrides the ladder tuning (nil = defaults). Its
	// Trace field is managed by Build. The ladder's FALLBACK canceller is
	// the Headphone kind's, built around Canceller.SecondaryPath.
	SupervisorConfig *supervisor.Config

	// Reference is the pulled reference input (required).
	Reference SampleSource
	// ExtraReferences are the further relays' reference inputs, one per
	// further noise source (the paper's §6 multi-source direction). Each
	// is pulled and aligned like Reference, on its clock and from its
	// budget, and steps its own LANC bank; the banks sum their anti-noise
	// and share the one error and Mu, split evenly. A reference that runs
	// short reads as silence. Incompatible with FDAF, Headphone,
	// Supervise, Drift, Canceller.Profiling and Canceller.LossAware
	// (Build returns ErrUnsupported).
	ExtraReferences []SampleSource
	// Ambient is the acoustic leg (required).
	Ambient Ambient
	// Drift is the optional clock-drift control stage.
	Drift DriftControl

	// SecondaryIR is the true speaker→error-mic impulse response the
	// anti-noise physically traverses (required).
	SecondaryIR []float64
	// NoiseRMS adds error-microphone self-noise of this RMS, drawn from
	// Noise.
	NoiseRMS float64
	// Noise is the self-noise generator (required when NoiseRMS != 0).
	Noise *audio.RNG

	// On, when non-nil, receives the measured (pre-sensor-noise) signal
	// at each sample index; Residual likewise receives the
	// error-microphone signal. Both must cover the samples processed.
	On       []float64
	Residual []float64

	// Trace, when non-nil, receives budget entries at Build and
	// canceller/supervisor state on the TraceBlock cadence.
	Trace *telemetry.Trace
	// TraceBlock is the trace cadence in samples (0 = DefaultTraceBlock).
	TraceBlock int
	// LiveHooks additionally emits per-block stream/drift/residual trace
	// events and registry gauges after every processed block — the live
	// CLI's observability. Simulation runs leave it off; their levels are
	// derived post-run from the recorded streams.
	LiveHooks bool
	// Telemetry, when non-nil, receives pipeline counters and gauges.
	Telemetry *telemetry.Registry
}

// StreamStats is implemented by reference sources backed by a jitter
// buffer (the live receiver); the per-block live hooks read it for the
// stream-stage trace events and gauges.
type StreamStats interface {
	Stats() stream.JitterStats
	Buffered() int
	Recovered() uint64
}

// Pipeline is a built cancellation graph. Exported fields are the planned
// lookahead, fixed at Build; drive the graph with ProcessBlock or Run, and
// reach the canceller, whichever kind it is, through its methods.
type Pipeline struct {
	// Budget is the lookahead budget the canceller was planned with
	// (zero for the Headphone kind).
	Budget core.Budget
	// Spend itemizes where the lookahead went (recorded into the trace
	// at Build; nil for the Headphone kind).
	Spend *telemetry.BudgetReport
	// NonCausalTaps is the N the canceller is built with (ActiveNonCausal
	// reads how many of them are live).
	NonCausalTaps int

	// canc is the canceller the sample loop steps; quantum is its pull
	// granularity (the FDAF block size, else 1).
	canc    canceller
	quantum int
	win     window // the owner of canc's live non-causal window
	// banks are canc's sample-domain LANCs, one per reference (nil for
	// the Headphone and FDAF kinds): what the trace and AdaptState read.
	banks []*core.LANC
	// align is the reference alignment: the lookahead no other stage
	// spends. Every reference keeps its last align pulled samples and
	// flags at the front of its scratch, so the canceller reads the
	// references align samples after the ambient leg does, and its taps
	// need not model the delay.
	align int
	// refs are the pulled references: Reference, then ExtraReferences.
	refs []reference

	amb   Ambient
	drift DriftControl
	sec   *dsp.StreamConvolver
	// errDelay holds the fed-back error for ErrorDelay samples (nil when
	// the error is fed back at once).
	errDelay *dsp.DelayLine

	noiseRMS float64
	noise    *audio.RNG

	on       []float64
	residual []float64

	trace      *telemetry.Trace
	traceEvery int64
	liveHooks  bool

	reg       *telemetry.Registry
	ctrSample *telemetry.Counter
	gTapE     *telemetry.Gauge
	gBuffered *telemetry.Gauge
	gEstPPM   *telemetry.Gauge
	gRatePPM  *telemetry.Gauge

	streamStats StreamStats
	driftStats  *DriftSource

	t        int64
	e        float64
	noisePow float64
	resPow   float64
}

// ErrUnsupported marks a Config combining stages Build cannot wire
// together. Build wraps it with the combination's name, so callers test
// for it with errors.Is.
var ErrUnsupported = errors.New("graph: unsupported stage combination")

// Build plans the lookahead budget and assembles the pipeline. This is
// the one place the cancellation stages are wired: the simulator and the
// live CLIs differ only in the sources, controls, and hooks they bind.
func Build(cfg Config) (*Pipeline, error) {
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("graph: sample rate %g must be positive", cfg.SampleRate)
	}
	if cfg.Reference == nil {
		return nil, fmt.Errorf("graph: a Reference source is required")
	}
	for i, r := range cfg.ExtraReferences {
		if r == nil {
			return nil, fmt.Errorf("graph: extra reference %d is nil", i)
		}
	}
	if cfg.Ambient == nil {
		return nil, fmt.Errorf("graph: an Ambient leg is required")
	}
	if len(cfg.SecondaryIR) == 0 {
		return nil, fmt.Errorf("graph: a SecondaryIR is required")
	}
	if cfg.NoiseRMS != 0 && cfg.Noise == nil {
		return nil, fmt.Errorf("graph: NoiseRMS set without a Noise generator")
	}
	if err := refuseCombinations(cfg); err != nil {
		return nil, err
	}
	if ds, ok := cfg.Reference.(*DriftSource); ok && cfg.Drift != DriftControl(ds) {
		return nil, fmt.Errorf("graph: a DriftSource reference must also be the Drift control")
	}
	if ds, ok := cfg.Drift.(*DriftSource); ok {
		if ds.Frame <= 0 {
			return nil, fmt.Errorf("graph: drift source frame %d must be positive", ds.Frame)
		}
		ds.prime = cfg.PrimeSamples // the steering target is the booked prime plus one frame
	}
	traceEvery := int64(cfg.TraceBlock)
	if traceEvery <= 0 {
		traceEvery = DefaultTraceBlock
	}
	pl := &Pipeline{
		refs:       make([]reference, 1+len(cfg.ExtraReferences)),
		amb:        cfg.Ambient,
		drift:      cfg.Drift,
		sec:        dsp.NewStreamConvolver(cfg.SecondaryIR),
		noiseRMS:   cfg.NoiseRMS,
		noise:      cfg.Noise,
		on:         cfg.On,
		residual:   cfg.Residual,
		trace:      cfg.Trace,
		traceEvery: traceEvery,
		liveHooks:  cfg.LiveHooks,
		reg:        cfg.Telemetry,
		quantum:    1,
	}
	if cfg.Headphone {
		hp, err := newHeadphone(cfg)
		if err != nil {
			return nil, err
		}
		pl.canc = headphoneKind{ANC: hp}
	} else if err := pl.planCanceller(cfg); err != nil {
		return nil, err
	}
	pl.win.c, _ = pl.canc.(limiter)
	pl.win.planned, pl.win.live = pl.NonCausalTaps, pl.NonCausalTaps
	// The pull scratch is sized once, for the alignment plus Run's block
	// (the trace cadence) in whole pull quanta.
	block := pl.align + (int(traceEvery)+pl.quantum-1)/pl.quantum*pl.quantum
	for i, src := range append([]SampleSource{cfg.Reference}, cfg.ExtraReferences...) {
		r := reference{src: src, x: make([]float64, block), m: make([]bool, block)}
		for j := range r.m[:pl.align] {
			r.m[j] = true // the canceller starts on align samples of real silence
		}
		pl.refs[i] = r
	}
	if cfg.ErrorDelay > 0 {
		dl, err := dsp.NewDelayLine(cfg.ErrorDelay)
		if err != nil {
			return nil, err
		}
		pl.errDelay = dl
	}

	if cfg.LiveHooks {
		ref := cfg.Reference
		if ds, ok := ref.(*DriftSource); ok {
			pl.driftStats, ref = ds, ds.Inner
		}
		if ss, ok := ref.(StreamStats); ok {
			pl.streamStats = ss
		}
		if cfg.Telemetry != nil {
			pl.ctrSample = cfg.Telemetry.Counter("pipeline.samples")
			pl.gTapE = cfg.Telemetry.Gauge("lanc.tap_energy")
			if pl.streamStats != nil {
				pl.gBuffered = cfg.Telemetry.Gauge("stream.buffered_frames")
			}
			if pl.driftStats != nil {
				pl.gEstPPM = cfg.Telemetry.Gauge("drift.est_ppm")
				pl.gRatePPM = cfg.Telemetry.Gauge("drift.rate_ppm")
			}
		}
	}
	return pl, nil
}

// refuseCombinations rejects the stage combinations Build cannot wire
// together with ErrUnsupported, and a negative ErrorDelay as a malformed
// binding.
func refuseCombinations(cfg Config) error {
	if cfg.ErrorDelay < 0 {
		return fmt.Errorf("graph: negative error delay %d", cfg.ErrorDelay)
	}
	if cfg.Headphone && cfg.FDAF != nil {
		return fmt.Errorf("%w: Headphone with FDAF", ErrUnsupported)
	}
	if cfg.ErrorDelay > 0 && cfg.Supervise {
		// The FALLBACK canceller adapts on the error as it arrives.
		return fmt.Errorf("%w: ErrorDelay with Supervise", ErrUnsupported)
	}
	if len(cfg.ExtraReferences) > 0 {
		// One LANC bank per reference: the other kinds have no banks, and
		// the ladder, drift holds, filter profiles and the concealment
		// gate each act on one LANC.
		for _, c := range []struct {
			set  bool
			name string
		}{
			{cfg.FDAF != nil, "FDAF"},
			{cfg.Headphone, "Headphone"},
			{cfg.Supervise, "Supervise"},
			{cfg.Drift != nil, "Drift control"},
			{cfg.Canceller.Profiling, "Canceller.Profiling"},
			{cfg.Canceller.LossAware, "Canceller.LossAware"},
		} {
			if c.set {
				return fmt.Errorf("%w: ExtraReferences with %s", ErrUnsupported, c.name)
			}
		}
	}
	// The ladder, drift holds, filter profiles, the concealment gate and
	// the stale-error pairing all act on the sample-domain LANC; the block
	// canceller and the headphone canceller have none of them.
	kind := "FDAF"
	if cfg.Headphone {
		kind = "Headphone"
	} else if cfg.FDAF == nil {
		return nil
	}
	switch {
	case cfg.Supervise:
		return fmt.Errorf("%w: %s with Supervise", ErrUnsupported, kind)
	case cfg.Drift != nil:
		return fmt.Errorf("%w: %s with Drift control", ErrUnsupported, kind)
	case cfg.Canceller.Profiling:
		return fmt.Errorf("%w: %s with Canceller.Profiling", ErrUnsupported, kind)
	case cfg.Canceller.LossAware:
		return fmt.Errorf("%w: %s with Canceller.LossAware", ErrUnsupported, kind)
	case cfg.ErrorDelay > 0:
		return fmt.Errorf("%w: %s with ErrorDelay", ErrUnsupported, kind)
	}
	return nil
}

// newHeadphone builds the conventional headphone canceller — the
// Headphone kind, and the ladder's FALLBACK rung. Its reference
// microphone hears the open-ear field, and its physical latency is
// already inside SecondaryIR via the shared chain.
func newHeadphone(cfg Config) (*headphone.ANC, error) {
	return headphone.NewANC(cfg.SampleRate, cfg.Canceller.SecondaryPath)
}

// planCanceller plans the lookahead budget, records its spend into the
// trace, and builds the canceller it funds: the block FDAF or LANC,
// supervised when asked. The FDAF kind debits no block latency: its
// anti-noise sample t depends only on reference samples up to t, and it
// takes each block from a pull, which every kind gets whole, so the block
// costs no delay the taps would have to model.
func (pl *Pipeline) planCanceller(cfg Config) error {
	la := cfg.Lookahead - cfg.ExtraReferenceDelay - cfg.PrimeSamples - cfg.DriftGuard
	if la < 0 {
		la = 0
	}
	budget, err := core.NewBudget(la, cfg.Pipeline)
	if err != nil {
		return err
	}
	nTaps := budget.UsableTaps
	if cfg.MaxNonCausalTaps > 0 && nTaps > cfg.MaxNonCausalTaps {
		nTaps = cfg.MaxNonCausalTaps
	}
	pl.Budget = budget
	pl.NonCausalTaps = nTaps
	pl.Spend, pl.align = Plan(cfg.SampleRate, cfg.Lookahead, cfg.PrimeSamples, cfg.ExtraReferenceDelay,
		cfg.DriftGuard, cfg.Pipeline, nTaps)
	pl.Spend.Record(cfg.Trace)

	if cfg.FDAF != nil {
		bl, err := core.NewBlock(core.BlockConfig{
			FilterTaps:    cfg.Canceller.CausalTaps + nTaps,
			BlockSize:     cfg.FDAF.BlockSize,
			Mu:            cfg.FDAF.Mu,
			SecondaryPath: cfg.Canceller.SecondaryPath,
			NonCausalTaps: nTaps,
		})
		if err != nil {
			return err
		}
		b := cfg.FDAF.BlockSize
		k := &fdafKind{BlockLANC: bl, x: make([]float64, b), a: make([]float64, b), e: make([]float64, b), i: b}
		if cfg.Telemetry != nil {
			k.blockNS = cfg.Telemetry.Histogram("lanc.block_ns",
				telemetry.HistogramOpts{Lo: 1e3, Ratio: 2, Buckets: 20})
		}
		pl.canc, pl.quantum = k, b
		return nil
	}
	c := cfg.Canceller
	// The banks share one error, so they split the step.
	banks := make([]*core.LANC, 1+len(cfg.ExtraReferences))
	for i := range banks {
		l, err := core.New(core.Config{
			NonCausalTaps: nTaps,
			CausalTaps:    c.CausalTaps,
			Mu:            c.Mu / float64(len(banks)),
			Normalized:    !c.PlainLMS,
			Leak:          Leak,
			SecondaryPath: c.SecondaryPath,
			ErrorDelay:    cfg.ErrorDelay,
			Profiling:     c.Profiling,
			SampleRate:    cfg.SampleRate,
			LossAware:     c.LossAware,
		})
		if err != nil {
			return err
		}
		banks[i] = l
	}
	pl.banks = banks
	lanc := banks[0]
	if len(banks) > 1 {
		pl.canc = &multiKind{LANC: lanc, banks: banks, more: pl.refs[1:]}
		return nil
	}
	if !cfg.Supervise {
		pl.canc = lancKind{lanc}
		return nil
	}
	fb, err := newHeadphone(cfg)
	if err != nil {
		return err
	}
	var scfg supervisor.Config
	if cfg.SupervisorConfig != nil {
		scfg = *cfg.SupervisorConfig
	}
	scfg.Trace = cfg.Trace
	sup, err := supervisor.New(scfg, lanc, nTaps, c.CausalTaps, fb)
	if err != nil {
		return err
	}
	pl.canc = supervisedKind{LANC: lanc, sup: sup, win: &pl.win}
	return nil
}

// ProcessBlock pulls and cancels up to n reference samples, returning how
// many the source produced (0 at end of stream). On the FDAF kind n is
// rounded up to whole blocks, and a short final block is zero-padded.
// The ambient leg reads each sample as pulled; the canceller steps it,
// with its concealment flag, align samples later (the budget's align
// entry), so a pipeline starts on align samples of silence.
func (pl *Pipeline) ProcessBlock(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("graph: block size %d must be positive", n)
	}
	n = (n + pl.quantum - 1) / pl.quantum * pl.quantum
	ref := &pl.refs[0]
	got := ref.pull(pl.align, n, pl.t)
	if got <= 0 {
		return 0, nil
	}
	for i := range pl.refs[1:] {
		r := &pl.refs[1+i]
		k := max(r.pull(pl.align, got, pl.t), 0)
		clear(r.x[pl.align+k : pl.align+got])
		clear(r.m[pl.align+k : pl.align+got])
	}
	// The canceller reads the aligned reference and its mask, align
	// samples behind the pull; the ambient leg reads the pull itself.
	x, m := ref.x[:got], ref.m[:got]
	local, cup := pl.amb.Next(ref.x[pl.align : pl.align+got])
	// The block is known before it is stepped: the filtered-x legs run a
	// block at a time, and the FDAF kind takes its blocks from here.
	pl.canc.Prefilter(x)
	ctl := Controls{pl}
	var blockRes float64
	for i := 0; i < got; i++ {
		// Drift decisions refer to samples as pulled; they act when those
		// samples reach the canceller.
		if pl.drift != nil && pl.t >= int64(pl.align) {
			pl.drift.Tick(pl.t-int64(pl.align), ctl)
		}
		if pl.trace != nil && pl.t%pl.traceEvery == 0 {
			pl.traceCancelState()
		}
		a := pl.canc.Step(x[i], local[i], pl.e, m[i])
		meas := cup[i] + pl.sec.Process(a)
		if pl.on != nil {
			pl.on[pl.t] = meas
		}
		e := meas
		if pl.noiseRMS != 0 {
			e += pl.noiseRMS * pl.noise.Norm()
		}
		if pl.residual != nil {
			pl.residual[pl.t] = e
		}
		pl.e = e
		if pl.errDelay != nil {
			pl.e = pl.errDelay.Process(e)
		}
		pl.noisePow += cup[i] * cup[i]
		pl.resPow += e * e
		blockRes += e * e
		pl.t++
	}
	for i := range pl.refs {
		pl.refs[i].keep(pl.align, got)
	}
	pl.afterBlock(got, blockRes)
	return got, nil
}

// reference is one pulled reference: its source and its pull scratch,
// whose front holds the last align pulled samples and flags.
type reference struct {
	src SampleSource
	x   []float64
	m   []bool
}

// pull grows the scratch to fit n samples behind the align front and
// pulls them for the block starting at start, returning the source's
// count.
func (r *reference) pull(align, n int, start int64) int {
	if len(r.x) < align+n {
		x, m := make([]float64, align+n), make([]bool, align+n)
		copy(x, r.x[:align])
		copy(m, r.m[:align])
		r.x, r.m = x, m
	}
	return r.src.Pull(r.x[align:align+n], r.m[align:align+n], start)
}

// keep moves the last align of the got pulled samples and flags to the
// front, for the next block.
func (r *reference) keep(align, got int) {
	copy(r.x, r.x[got:got+align])
	copy(r.m, r.m[got:got+align])
}

// Run drives the pipeline for total samples in blocks of block samples
// (0 = the trace cadence). It stops early if the source dries up.
func (pl *Pipeline) Run(total, block int) error {
	if block <= 0 {
		block = int(pl.traceEvery)
	}
	for done := 0; done < total; {
		got, err := pl.ProcessBlock(min(block, total-done))
		if err != nil || got == 0 {
			return err
		}
		done += got
	}
	return nil
}

// Samples returns how many samples the pipeline has processed.
func (pl *Pipeline) Samples() int64 { return pl.t }

// Close tears the pipeline down: the block scratch is released (an empty
// announcement drops the canceller's view of it), and
// any bound stage that owns an external resource — a source draining a
// network receiver, an ambient leg holding pooled state — is closed via
// its io.Closer face. A session server opening and closing thousands of
// pipelines per hour must not accrete per-session scratch; everything a
// Build allocated is droppable after Close. Close is idempotent; the
// pipeline must not be driven afterwards. The first stage close error
// wins, but every stage is still closed.
func (pl *Pipeline) Close() error {
	stages := make([]any, 0, len(pl.refs)+2)
	for i := range pl.refs {
		stages = append(stages, pl.refs[i].src)
		pl.refs[i] = reference{}
	}
	pl.canc.Prefilter(nil)
	var first error
	for _, stage := range append(stages, pl.amb, pl.drift) {
		if c, ok := stage.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	pl.amb, pl.drift = nil, nil
	return first
}

// Meters returns the accumulated ambient (under-cup) and residual powers
// — the live CLI's end-of-run cancellation figure.
func (pl *Pipeline) Meters() (noisePow, resPow float64) {
	return pl.noisePow, pl.resPow
}

// traceCancelState records the canceller's observable state at a trace
// cadence boundary: effective step size, tap energy, the loss-aware
// posture, and (when supervised) the ladder state. The multi-reference
// kind records one step event per bank, each carrying its bank index.
// All reads — the run's samples are unchanged.
func (pl *Pipeline) traceCancelState() {
	for b, l := range pl.banks {
		gain, frozen, rampLeft := l.LossState()
		fz := 0.0
		if frozen {
			fz = 1
		}
		ev := map[string]float64{
			"mu_eff":     l.EffectiveStep(),
			"tap_energy": l.TapEnergy(),
			"gain":       gain,
			"frozen":     fz,
			"ramp_left":  float64(rampLeft),
		}
		if len(pl.banks) > 1 {
			ev["bank"] = float64(b)
		}
		pl.trace.Record(pl.t, telemetry.StageLANC, "step", ev)
	}
	if k, ok := pl.canc.(supervisedKind); ok {
		k.sup.TraceState(pl.trace, pl.t)
	}
}

// afterBlock emits the live per-block observability: stream/drift/
// residual trace events on the sample clock and registry gauges. It is
// a no-op unless LiveHooks was set.
func (pl *Pipeline) afterBlock(got int, blockRes float64) {
	if !pl.liveHooks {
		return
	}
	if pl.trace != nil {
		if ss := pl.streamStats; ss != nil {
			st := ss.Stats()
			pl.trace.Record(pl.t, telemetry.StageStream, "jitter", map[string]float64{
				"frames_received":   float64(st.FramesReceived),
				"frames_late":       float64(st.FramesLate),
				"frames_dropped":    float64(st.FramesDropped),
				"samples_concealed": float64(st.SamplesConcealed),
				"fec_recovered":     float64(ss.Recovered()),
			})
			pl.trace.Record(pl.t, telemetry.StageLookahead, "occupancy", map[string]float64{
				"frames": float64(ss.Buffered()),
			})
		}
		if ds := pl.driftStats; ds != nil {
			est, raw, rate, locked := ds.DriftState()
			lv := 0.0
			if locked {
				lv = 1
			}
			pl.trace.Record(pl.t, telemetry.StageDrift, "estimator", map[string]float64{
				"est_ppm":  est,
				"raw_ppm":  raw,
				"rate_ppm": rate,
				"locked":   lv,
			})
		}
		pl.trace.Record(pl.t, telemetry.StageResidual, "block", map[string]float64{
			"power": blockRes / float64(got),
		})
	}
	if pl.reg == nil {
		return
	}
	if pl.ctrSample != nil {
		pl.ctrSample.Add(int64(got))
	}
	if pl.gTapE != nil && pl.banks != nil {
		_, tapEnergy, _ := pl.AdaptState()
		pl.gTapE.Set(tapEnergy)
	}
	if pl.gBuffered != nil {
		pl.gBuffered.Set(float64(pl.streamStats.Buffered()))
	}
	if pl.driftStats != nil && pl.gEstPPM != nil {
		est, _, rate, _ := pl.driftStats.DriftState()
		pl.gEstPPM.Set(est)
		pl.gRatePPM.Set(rate)
	}
}
