package graph

import (
	"mute/internal/core"
	"mute/internal/telemetry"
)

// Plan itemizes a pipeline's lookahead: playout buffering, the drift
// resampler's interpolation guard, the deliberate delayed-line injection,
// the Equation 3 processing pipeline, the non-causal taps the canceller
// was granted, and the reference alignment that spends the rest (a
// negative "overdrawn" entry follows a zero alignment when the deadline is
// missed). The entries always sum to the lookahead exactly, so the report
// is an accounting identity, not an estimate — the invariant the
// golden-trace suite checks on every traced run. It returns the report and
// the alignment delay in samples.
func Plan(fs float64, lookahead, prime, extraDelay, driftGuard int, pipe core.PipelineDelays, nTaps int) (*telemetry.BudgetReport, int) {
	b := telemetry.NewBudgetReport(fs, lookahead)
	b.Add("transport.prime", prime)
	if driftGuard > 0 {
		b.Add("drift.resampler", driftGuard)
	}
	b.Add("reference.extra_delay", extraDelay)
	b.Add("pipeline.adc", pipe.ADC)
	b.Add("pipeline.dsp", pipe.DSP)
	b.Add("pipeline.dac", pipe.DAC)
	b.Add("pipeline.speaker", pipe.Speaker)
	b.Add("lanc.noncausal_taps", nTaps)
	rest := lookahead - b.SpentSamples()
	align := max(rest, 0)
	b.Add("align", align)
	if rest < 0 {
		b.Add("overdrawn", rest)
	}
	return b, align
}
