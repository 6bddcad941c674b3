// Package mute is the public API of the MUTE reproduction — a
// lookahead-aware active noise cancellation system in which an IoT relay
// forwards ambient sound over a wireless link so the ear device hears the
// noise milliseconds before it arrives acoustically (Shen et al.,
// SIGCOMM 2018).
//
// The package offers three levels of entry:
//
//   - Scenario simulation: build a Scene (room, sources, relay, ear),
//     choose a Scheme, and Run it to obtain recordings and cancellation
//     reports. This is what the examples and the benchmark harness use.
//
//   - Algorithm embedding: NewCanceller exposes the LANC adaptive filter
//     directly for integration into custom sample loops, along with
//     lookahead budgeting (PlanBudget) and relay selection (SelectRelay).
//
//   - Live transport: Sender/Receiver stream timestamped audio frames
//     over UDP for split relay/ear deployments (see cmd/muterelay and
//     cmd/muteear).
package mute

import (
	"fmt"
	"os"
	"time"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/metrics"
	"mute/internal/relaysel"
	"mute/internal/sim"
	"mute/internal/stream"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
)

// Geometry and scenario types.
type (
	// Room is a rectangular room with absorptive walls.
	Room = acoustics.Room
	// Scene is a physical experiment layout.
	Scene = sim.Scene
	// Source is a positioned sound source.
	Source = sim.Source
	// Params configures a simulation run.
	Params = sim.Params
	// Result holds a run's recordings and budget.
	Result = sim.Result
	// Scheme selects the cancellation system under test.
	Scheme = sim.Scheme
	// Generator produces a sample stream.
	Generator = audio.Generator
)

// The comparison schemes of the paper's evaluation.
const (
	// MUTEHollow is the open-ear MUTE device.
	MUTEHollow = sim.MUTEHollow
	// MUTEPassive is MUTE running inside a passive ear cup.
	MUTEPassive = sim.MUTEPassive
	// BoseActive is the conventional headphone's ANC contribution.
	BoseActive = sim.BoseActive
	// BoseOverall is the conventional headphone end to end.
	BoseOverall = sim.BoseOverall
	// PassiveOnly is the ear cup alone.
	PassiveOnly = sim.PassiveOnly
)

// DefaultRoom returns the furnished-office room model.
func DefaultRoom() Room { return acoustics.DefaultRoom() }

// DefaultScene builds the Figure 1 office layout around a noise generator.
func DefaultScene(gen Generator) Scene { return sim.DefaultScene(gen) }

// DefaultParams returns the standard evaluation parameters for a scene.
func DefaultParams(scene Scene) Params { return sim.DefaultParams(scene) }

// Run simulates a scheme and returns its recordings.
func Run(p Params, scheme Scheme) (*Result, error) { return sim.Run(p, scheme) }

// Report summarizes a run for human consumption.
type Report struct {
	// Scheme names the simulated system.
	Scheme string
	// FullBandDB is the average cancellation over [50, 4000] Hz.
	FullBandDB float64
	// LowBandDB is the average over [50, 1000] Hz.
	LowBandDB float64
	// HighBandDB is the average over [1000, 4000] Hz.
	HighBandDB float64
	// LookaheadMs is the geometric lookahead in milliseconds.
	LookaheadMs float64
	// NonCausalTaps is the lookahead LANC spent on non-causal filtering.
	NonCausalTaps int
}

// gainDB is a run's reported cancellation over [loHz, hiHz]: the ANC's
// own gain (On vs Off, both under the cup) for BoseActive, and the gain
// against the open ear for every other scheme.
func gainDB(r *Result, loHz, hiHz float64) (float64, error) {
	if r.Scheme == BoseActive {
		return r.ActiveGainDB(loHz, hiHz)
	}
	return r.CancellationDB(loHz, hiHz)
}

// Summarize derives a Report from a Result. BoseActive reports the ANC's
// own gain (On vs Off); every other scheme reports On vs the open ear.
func Summarize(r *Result) (Report, error) {
	full, err := gainDB(r, 50, 4000)
	if err != nil {
		return Report{}, err
	}
	low, err := gainDB(r, 50, 1000)
	if err != nil {
		return Report{}, err
	}
	high, err := gainDB(r, 1000, 4000)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Scheme:        r.Scheme.String(),
		FullBandDB:    full,
		LowBandDB:     low,
		HighBandDB:    high,
		LookaheadMs:   float64(r.LookaheadSamples) / r.SampleRate * 1000,
		NonCausalTaps: r.UsedNonCausalTaps,
	}, nil
}

// String renders the report as a one-line summary.
func (rep Report) String() string {
	return fmt.Sprintf("%-13s full %6.1f dB | <1 kHz %6.1f dB | >1 kHz %6.1f dB | lookahead %.1f ms (N=%d)",
		rep.Scheme, rep.FullBandDB, rep.LowBandDB, rep.HighBandDB, rep.LookaheadMs, rep.NonCausalTaps)
}

// Spectrum computes the cancellation-vs-frequency curve of a run (the
// paper's Figure 12/14 y-axis) from the steady-state recordings, against
// the same baseline as Summarize.
func Spectrum(r *Result) (freqs, dB []float64, err error) {
	base := r.Open
	if r.Scheme == BoseActive {
		base = r.Off
	}
	cs, err := metrics.NewCancellationSpectrum(
		sim.SteadyState(base), sim.SteadyState(r.On), r.SampleRate, 1024)
	if err != nil {
		return nil, nil, err
	}
	return cs.Freqs, cs.DB, nil
}

// SaveWAV writes samples as a 16-bit mono WAV file.
func SaveWAV(path string, samples []float64, sampleRate int) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mute: create %s: %w", path, err)
	}
	defer f.Close()
	if err := audio.WriteWAV(f, samples, sampleRate); err != nil {
		return err
	}
	return f.Close()
}

// LoadWAV reads a 16-bit PCM WAV file into mono samples.
func LoadWAV(path string) ([]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("mute: open %s: %w", path, err)
	}
	defer f.Close()
	return audio.ReadWAV(f)
}

// --- Generators -------------------------------------------------------------

// WhiteNoise returns the wide-band unpredictable test signal of Figure 12.
func WhiteNoise(seed uint64, sampleRate, amp float64) Generator {
	return audio.NewWhiteNoise(seed, sampleRate, amp)
}

// MachineHum returns periodic machine noise (fundamental + harmonics).
func MachineHum(seed uint64, fundamentalHz, sampleRate, amp float64) Generator {
	return audio.NewMachineHum(seed, fundamentalHz, sampleRate, amp, 8)
}

// MaleSpeech returns an intermittent male talker.
func MaleSpeech(seed uint64, sampleRate, amp float64) Generator {
	return audio.NewSpeech(seed, audio.MaleVoice, sampleRate, amp)
}

// FemaleSpeech returns an intermittent female talker.
func FemaleSpeech(seed uint64, sampleRate, amp float64) Generator {
	return audio.NewSpeech(seed, audio.FemaleVoice, sampleRate, amp)
}

// Music returns a melodic wide-band source.
func Music(seed uint64, sampleRate, amp float64) Generator {
	return audio.NewMusic(seed, sampleRate, amp, 3)
}

// Construction returns impulsive construction-site noise.
func Construction(seed uint64, sampleRate, amp float64) Generator {
	return audio.NewConstructionNoise(seed, sampleRate, amp)
}

// Babble returns overlapping corridor conversation.
func Babble(seed uint64, talkers int, sampleRate, amp float64) Generator {
	return audio.NewBabble(seed, talkers, sampleRate, amp)
}

// Traffic returns road noise: engine rumble plus vehicle pass-bys.
// density is vehicles per minute.
func Traffic(seed uint64, sampleRate, amp, density float64) Generator {
	return audio.NewTraffic(seed, sampleRate, amp, density)
}

// Announcement returns public-address announcements: chime, sentence,
// long silence — the airport scenario of the paper's introduction.
func Announcement(seed uint64, sampleRate, amp float64) Generator {
	return audio.NewAnnouncement(seed, sampleRate, amp)
}

// FromSamples wraps recorded samples (e.g. from LoadWAV) as a looping
// noise source, resampling from srcRate to dstRate when they differ.
func FromSamples(data []float64, srcRate, dstRate float64, loop bool) (Generator, error) {
	resampled, err := dsp.Resample(data, srcRate, dstRate)
	if err != nil {
		return nil, err
	}
	return audio.NewSliceSource(resampled, dstRate, loop), nil
}

// --- Architectural variants -------------------------------------------------

// The architectural variants of Figure 10.
const (
	// WallRelay is the evaluated basic architecture.
	WallRelay = sim.WallRelay
	// Tabletop hosts the DSP at a portable relay (Figure 10(a)).
	Tabletop = sim.Tabletop
	// SmartNoise attaches the relay to the noise source (Figure 10(c)).
	SmartNoise = sim.SmartNoise
)

// VariantParams configures a variant run.
type VariantParams = sim.VariantParams

// RunVariant simulates an architectural variant with the MUTE algorithm.
func RunVariant(vp VariantParams) (*Result, error) { return sim.RunVariant(vp) }

// --- Algorithm embedding ----------------------------------------------------

// CancellerConfig configures an embedded LANC instance.
type CancellerConfig = core.Config

// Canceller is the LANC adaptive filter for custom sample loops: call
// Push with each wirelessly received reference sample, play AntiNoise
// through your speaker, and feed the measured residual to Adapt. When the
// reference arrives over a lossy packet link, set CancellerConfig.LossAware
// and use PushMasked/StepMasked with the jitter buffer's concealment mask
// (Receiver.PopMask) so adaptation freezes over zero-filled gaps instead
// of corrupting the filter.
type Canceller = core.LANC

// NewCanceller creates an embedded LANC instance.
func NewCanceller(cfg CancellerConfig) (*Canceller, error) { return core.New(cfg) }

// PipelineDelays models converter/DSP/speaker latency (Equation 3).
type PipelineDelays = core.PipelineDelays

// LookaheadBudget splits available lookahead between the processing
// pipeline and non-causal filter taps.
type LookaheadBudget = core.Budget

// PlanBudget computes the lookahead budget for a deployment.
func PlanBudget(lookaheadSamples int, p PipelineDelays) (LookaheadBudget, error) {
	return core.NewBudget(lookaheadSamples, p)
}

// --- Relay selection ----------------------------------------------------------

// RelaySelection is the outcome of a GCC-PHAT relay-selection round.
type RelaySelection = relaysel.Selection

// SelectRelay correlates each relay's forwarded stream against the locally
// heard signal and picks the relay with the largest positive lookahead, or
// Best == -1 when every relay lags (Section 4.2).
func SelectRelay(forwarded [][]float64, local []float64, maxLag int) (*RelaySelection, error) {
	return relaysel.SelectRelay(forwarded, local, maxLag, 1, 0.05)
}

// --- Live transport -----------------------------------------------------------

// Sender streams timestamped audio frames to a UDP peer (the relay side).
type Sender = stream.Sender

// Receiver reassembles streamed frames through a jitter buffer (the ear
// side).
type Receiver = stream.Receiver

// NewSender dials a receiver address with the given frame size in samples.
func NewSender(addr string, frameSamples int) (*Sender, error) {
	return stream.NewSender(addr, frameSamples)
}

// NewReceiver listens on addr with the given jitter-buffer depth.
func NewReceiver(addr string, depth int) (*Receiver, error) {
	return stream.NewReceiver(addr, depth)
}

// --- Fault injection and loss-aware transport ---------------------------------

// LossParams configures the deterministic link fault injector: i.i.d. or
// Gilbert–Elliott burst loss, duplication, reordering, and per-frame
// latency jitter.
type LossParams = stream.LossParams

// LossyLink is a seeded link impairment model. Install it on a Sender via
// Impair for live fault injection, or drive it in-process with Transfer.
type LossyLink = stream.LossyLink

// NewLossyLink builds a fault injector from validated parameters.
func NewLossyLink(p LossParams) (*LossyLink, error) { return stream.NewLossyLink(p) }

// --- Clock-drift resilience -----------------------------------------------------

// SkewParams configures the skewed-oscillator fault injector: a constant
// relay-vs-ear frequency offset in ppm, an optional seeded random-walk
// wander, and scheduled frequency steps. The zero value is disabled — an
// exact identity: positions stay integral and a run on it matches a
// zero-skew run bit for bit.
type SkewParams = stream.SkewParams

// ClockSkew maps relay-clock sample indices to ear-clock positions under
// the configured skew. Set Params.LossTransport's Skew to inject drift
// into a simulated run, or pace a live Sender by its Pos (see
// cmd/muterelay's -skew-ppm flag).
type ClockSkew = stream.ClockSkew

// NewClockSkew builds the skew injector from validated parameters.
func NewClockSkew(p SkewParams) (*ClockSkew, error) { return stream.NewClockSkew(p) }

// DriftConfig tunes a DriftEstimator; the zero value selects defaults.
type DriftConfig = stream.DriftConfig

// DriftEstimator measures the relay-vs-ear clock skew from the delivered
// stream itself: each frame contributes one (timestamp, arrival) pair and
// the robust slope of that line is 1 + skew. Feed it from
// Receiver.SetFrameObserver and steer a VariRateResampler with PPM (see
// cmd/muteear's -drift-correct flag).
type DriftEstimator = stream.DriftEstimator

// NewDriftEstimator creates a drift estimator with defaults filled.
func NewDriftEstimator(cfg DriftConfig) (*DriftEstimator, error) {
	return stream.NewDriftEstimator(cfg)
}

// VariRateResampler is the streaming continuous-rate fractional resampler
// that slaves the received reference to the ear clock: Push jitter-buffer
// output (with its concealment flag), SetRate to 1 + PPM·1e-6 from the
// estimator, Pop consumer-clock samples. At rate exactly 1 it is a
// bit-exact passthrough.
type VariRateResampler = dsp.VariRateResampler

// NewVariRateResampler creates a resampler at unity rate.
func NewVariRateResampler() *VariRateResampler { return dsp.NewVariRateResampler() }

// --- Relay-outage resilience --------------------------------------------------

// Outage schedules a relay blackout on a LossyLink: every frame offered
// during [StartSlot, StartSlot+DurationSlots) is dropped, on top of the
// link's stochastic impairments. Set LossParams.Outages to script relay
// reboots deterministically.
type Outage = stream.Outage

// The degradation ladder's rungs, healthiest first.
const (
	StateLANC        = supervisor.StateLANC
	StateDegraded    = supervisor.StateDegraded
	StateFallback    = supervisor.StateFallback
	StatePassthrough = supervisor.StatePassthrough
)

// --- Unified pipeline graph -----------------------------------------------------

// The cancellation pipeline — reference source → drift control →
// supervisor/LANC (or BlockFDAF) → secondary chain → residual metering —
// is wired once, in the internal streaming-graph package, and shared by
// the simulator and the live CLIs. Embedders bind sources and controls
// to BuildPipeline instead of hand-wiring stages (see DESIGN.md's
// "Streaming graph" section).
type (
	// Pipeline is a built cancellation graph: drive it with ProcessBlock
	// or Run, read Meters/Samples and the planned Budget/Spend back.
	// ProcessBlock(n) pulls n samples; on the FDAF kind n is rounded up to
	// whole blocks.
	Pipeline = graph.Pipeline
	// PipelineConfig wires one pipeline; Reference, Ambient, SecondaryIR
	// and the lookahead geometry are the required bindings.
	PipelineConfig = graph.Config
	// PipelineCancellerParams is the canceller-policy slice of the
	// configuration.
	PipelineCancellerParams = graph.CancellerParams
	// SampleSource is a pull-scheduled reference input (samples + mask).
	SampleSource = graph.SampleSource
	// DriftControl steers adaptation holds and supervisor drift reports.
	DriftControl = graph.DriftControl
	// ReceiverSource adapts a jitter-buffered Receiver to a SampleSource.
	ReceiverSource = graph.ReceiverSource
	// DriftSource slaves a SampleSource to the local clock through a
	// DriftEstimator-steered VariRateResampler.
	DriftSource = graph.DriftSource
	// DerivedAmbient synthesizes the acoustic leg from the delayed
	// reference (the live demo's binding).
	DerivedAmbient = graph.DerivedAmbient
	// LiveDrift reports an online estimator to the supervisor per block.
	LiveDrift = graph.LiveDrift
)

// BuildPipeline plans the lookahead budget and assembles the unified
// cancellation pipeline.
func BuildPipeline(cfg PipelineConfig) (*Pipeline, error) { return graph.Build(cfg) }

// BlockDeadline returns the exact wall-clock boundary of processing
// block n (1-based) for a frame-sample block loop started at start with
// integer sample rate fs — computed in integer arithmetic so no
// truncation skew accumulates between the block clock and the sample
// clock.
func BlockDeadline(start time.Time, n, frame, fs int64) time.Time {
	return graph.BlockDeadline(start, n, frame, fs)
}

// ServeDebug binds addr synchronously and serves expvar (/debug/vars)
// and pprof (/debug/pprof/) on a dedicated mux in the background,
// returning the bound address. Pair with PublishTelemetry to expose a
// registry.
func ServeDebug(addr string) (string, error) { return telemetry.ServeDebug(addr) }

// --- Observability ------------------------------------------------------------

// Pipeline observability (see OBSERVABILITY.md): a Telemetry registry
// aggregates counters/gauges/histograms across a run or sweep, a Trace
// records per-stage events on the sample clock, and Result.BudgetSpend
// breaks the lookahead budget down stage by stage. Attaching either to a run is
// result-neutral — the pipeline only reports state into them and never
// branches on them.
type (
	// Telemetry is a concurrency-safe metrics registry. Set
	// Params.Telemetry (or experiments.Config.Telemetry) to aggregate a
	// run's pipeline counters; read it back with Snapshot.
	Telemetry = telemetry.Registry
	// Trace is an in-memory per-stage event recorder. Set Params.Trace to
	// capture capture/link/stream/lookahead/lanc/residual events keyed by
	// sample time; serialize with its WriteFile/WriteJSONL methods.
	Trace = telemetry.Trace
)

// NewTelemetry creates an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// NewTrace creates an empty stage-event trace.
func NewTrace() *Trace { return telemetry.NewTrace() }

// PublishTelemetry exposes a registry as an expvar variable, so an HTTP
// debug endpoint (/debug/vars) serves live snapshots.
func PublishTelemetry(name string, r *Telemetry) { telemetry.PublishExpvar(name, r) }
