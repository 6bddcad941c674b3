// Package graph is the single construction site for MUTE's cancellation
// pipeline. The same stage wiring — reference source → drift control →
// supervisor/LANC (or BlockFDAF) → secondary chain → residual metering —
// used to be assembled twice, once in internal/sim's engine and once in
// cmd/muteear's live loop, and every resilience feature had to land in
// both places (and occasionally landed in only one). Here the pipeline is
// expressed once as a small streaming graph, and both the simulator and
// the live CLI instantiate it by binding sources and controls to the same
// Build call, so a stage wired for the simulator is definitionally wired
// for the ear device too.
//
// # Stage contract
//
// Stages exchange blocks over typed ports on the ear device's sample
// clock:
//
//   - sample ports carry []float64 audio,
//   - mask ports carry []bool concealment flags aligned 1:1 with the
//     samples (true = a real received sample, false = a zero-filled gap
//     the canceller must not adapt through),
//   - the timestamp port is the int64 index of a block's first sample on
//     the pipeline clock, threaded through every Pull and hook.
//
// Execution is pull-scheduled: the Pipeline (the sink) asks its reference
// SampleSource for the next block, and composite sources — the drift
// corrector, the jitter-buffer adapter — recursively pull whatever input
// they need to produce it. Nothing pushes; backpressure is the call
// stack.
//
// # Telemetry hooks
//
// Observability attaches at the graph, not at the call sites: the budget
// plan is recorded into the trace at Build, the canceller/supervisor
// state is traced on the configured sample-clock cadence, and per-block
// stream/drift/residual events plus registry gauges are emitted by the
// scheduler after every block when live hooks are enabled. All hooks are
// result-neutral — they read pipeline state and never influence a sample.
package graph

// SampleSource is a pull-scheduled reference input: Pull fills samples
// (and the 1:1 concealment mask) for the block starting at sample index
// start on the pipeline clock, returning how many samples were produced.
// A short return ends the stream; sources with no loss model must set
// every mask entry true.
type SampleSource interface {
	// Pull produces the next len(samples) reference samples. mask has the
	// same length.
	Pull(samples []float64, mask []bool, start int64) int
}

// Ambient is the acoustic leg of the graph: for each block of reference
// samples it yields the coincident ambient sound at the open ear (what
// the supervisor's fallback microphone hears) and under the cup (what the
// anti-noise must cancel). The simulator binds pre-rendered room
// acoustics; the live ear derives both from the delayed reference.
type Ambient interface {
	// Next advances len(x) samples. x is the reference block pulled at
	// the same instants; local and cup have its length and stay valid
	// until the next call.
	Next(x []float64) (local, cup []float64)
}

// Controls is the surface a DriftControl may steer, handed to Tick once
// per sample. Every method is nil-safe with respect to optional stages:
// holding adaptation is a no-op on the FDAF path, drift observations are
// dropped when no supervisor is attached.
type Controls struct {
	pl *Pipeline
}

// Hold freezes the canceller's adaptation for hold samples, then ramps
// back over ramp samples (see core.LANC.HoldAdaptation).
func (c Controls) Hold(hold, ramp int) {
	for _, l := range c.pl.banks {
		l.HoldAdaptation(hold, ramp)
	}
}

// ObserveDrift feeds a skew estimate to the supervisor's health view.
func (c Controls) ObserveDrift(ppm float64, estimable bool) {
	if k, ok := c.pl.canc.(supervisedKind); ok {
		k.sup.ObserveDrift(ppm, estimable)
	}
}

// DriftControl is the clock-drift stage's control face: Tick runs before
// the cancellation step of every sample and may hold adaptation around
// suspected oscillator steps or report estimator state to the
// supervisor. Its t indexes samples as pulled: the pipeline ticks t when
// pulled sample t reaches the canceller, after the reference alignment.
// DriftSource, the one implementation, is bound alike by the simulator
// and the live ear: the drift source they pull through is the control.
type DriftControl interface {
	Tick(t int64, c Controls)
}
