package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// Canonical pipeline stage identifiers, in signal order. Trace events tag
// one of these so a reader can follow a sample block from the relay
// microphone to the residual at the ear.
const (
	// StageCapture is the relay microphone capture (pre-link reference).
	StageCapture = "capture"
	// StageLink is the wireless forwarding leg (FM chain or ideal wire).
	StageLink = "link"
	// StageStream is the packetized transport: framing, FEC, jitter buffer.
	StageStream = "stream"
	// StageLookahead is the lookahead buffer state at the canceller input.
	StageLookahead = "lookahead"
	// StageLANC is the adaptive filter step (step size, tap energy,
	// freeze/ramp state).
	StageLANC = "lanc"
	// StageResidual is the error-microphone residual.
	StageResidual = "residual"
	// StageBudget tags the per-stage lookahead budget entries (see
	// BudgetReport.Record); their samples sum to the run's lookahead.
	StageBudget = "budget"
	// StageSupervisor tags the degradation-ladder supervisor: state
	// transitions, link-health estimates, and reacquisition probes.
	StageSupervisor = "supervisor"
	// StageDrift tags the clock-drift stage between the jitter buffer and
	// the canceller: estimated skew ppm, applied resampler rate, and the
	// occupancy (residual alignment) error steering it.
	StageDrift = "drift"
	// StageMesh tags the relay-mesh supervisor: membership churn,
	// hysteretic and emergency handoffs, and orphaned windows.
	StageMesh = "mesh"
)

// Event is one trace record: a pipeline stage observed at a sample-clock
// timestamp. Timestamps are sample indices, not wall-clock times, so a
// trace of a deterministic run is itself deterministic — the property the
// golden-trace regression suite relies on.
type Event struct {
	// T is the sample-clock timestamp (index of the first sample of the
	// block the event describes).
	T int64 `json:"t"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Name distinguishes sub-series within a stage (e.g. the budget
	// entry's stage name, or a per-source capture channel).
	Name string `json:"name,omitempty"`
	// Values carries the measurements. encoding/json sorts the keys, so
	// the JSONL form is deterministic too.
	Values map[string]float64 `json:"values,omitempty"`
}

// Trace records pipeline events in arrival order. It is safe for
// concurrent recorders (each simulation run owns one goroutine, but the
// HTTP snapshot endpoint may read concurrently).
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// NewTrace creates an empty trace recorder.
func NewTrace() *Trace { return &Trace{} }

// Record appends one event. Non-finite values are clamped (NaN → 0,
// ±Inf → ±MaxFloat64) so the trace always serializes to valid JSON.
func (tr *Trace) Record(t int64, stage, name string, values map[string]float64) {
	for k, v := range values {
		if math.IsNaN(v) {
			values[k] = 0
		} else if math.IsInf(v, 1) {
			values[k] = math.MaxFloat64
		} else if math.IsInf(v, -1) {
			values[k] = -math.MaxFloat64
		}
	}
	tr.mu.Lock()
	tr.events = append(tr.events, Event{T: t, Stage: stage, Name: name, Values: values})
	tr.mu.Unlock()
}

// Len returns the number of recorded events.
func (tr *Trace) Len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.events)
}

// Events returns a copy of the recorded events in arrival order.
func (tr *Trace) Events() []Event {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]Event, len(tr.events))
	copy(out, tr.events)
	return out
}

// WriteJSONL writes the trace as one JSON object per line.
func (tr *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range tr.Events() {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("telemetry: encode trace event: %w", err)
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace as a JSONL file at path.
func (tr *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: create trace file: %w", err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
