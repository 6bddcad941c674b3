package telemetry

import (
	"fmt"
	"strings"
)

// BudgetEntry is one stage's share of the lookahead budget.
type BudgetEntry struct {
	// Stage names the consumer (e.g. "transport.prime", "pipeline.adc",
	// "lanc.noncausal_taps", "align").
	Stage string `json:"stage"`
	// Samples is the lookahead the stage consumes, in samples.
	Samples int `json:"samples"`
}

// BudgetReport itemizes where a deployment's lookahead goes: the playout
// buffering of the packetized transport, any deliberate reference delay,
// the ADC/DSP/DAC/speaker pipeline of Equation 3, the non-causal taps that
// do the actual cancelling, and the reference alignment that spends the
// rest. The entries sum to the geometric lookahead exactly — the
// invariant the muteear trace test enforces — so a reader can see stage
// by stage why N is what it is.
type BudgetReport struct {
	// SampleRate converts samples to milliseconds.
	SampleRate float64 `json:"sample_rate"`
	// LookaheadSamples is the total geometric lookahead being spent.
	LookaheadSamples int `json:"lookahead_samples"`
	// Entries lists the consumers in pipeline order.
	Entries []BudgetEntry `json:"entries"`
}

// NewBudgetReport starts a report for a deployment's total lookahead.
func NewBudgetReport(sampleRate float64, lookaheadSamples int) *BudgetReport {
	return &BudgetReport{SampleRate: sampleRate, LookaheadSamples: lookaheadSamples}
}

// Add appends one stage's spend (zero-sample entries are kept: an explicit
// "0" row tells the reader the stage exists and is free).
func (b *BudgetReport) Add(stage string, samples int) {
	b.Entries = append(b.Entries, BudgetEntry{Stage: stage, Samples: samples})
}

// SpentSamples sums the entries.
func (b *BudgetReport) SpentSamples() int {
	total := 0
	for _, e := range b.Entries {
		total += e.Samples
	}
	return total
}

// Ms converts a sample count to milliseconds at the report's rate.
func (b *BudgetReport) Ms(samples int) float64 {
	if b.SampleRate <= 0 {
		return 0
	}
	return float64(samples) / b.SampleRate * 1000
}

// Balanced reports whether the entries account for the lookahead to within
// one sample period (rounding slack from integer sample conversion).
func (b *BudgetReport) Balanced() bool {
	d := b.SpentSamples() - b.LookaheadSamples
	return d >= -1 && d <= 1
}

// Record emits the report into a trace as StageBudget events at t=0, one
// per entry, each carrying the spend in samples and milliseconds.
func (b *BudgetReport) Record(tr *Trace) {
	if tr == nil {
		return
	}
	for _, e := range b.Entries {
		tr.Record(0, StageBudget, e.Stage, map[string]float64{
			"samples": float64(e.Samples),
			"ms":      b.Ms(e.Samples),
		})
	}
}

// Text renders the compact budget report, e.g.:
//
//	lookahead budget: 70 samples (8.75 ms @ 8000 Hz)
//	  transport.prime        40 samples   5.000 ms  57.1%
//	  pipeline.adc            1 samples   0.125 ms   1.4%
//	  ...
//	  accounted 70/70 samples
func (b *BudgetReport) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "lookahead budget: %d samples (%.2f ms @ %g Hz)\n",
		b.LookaheadSamples, b.Ms(b.LookaheadSamples), b.SampleRate)
	for _, e := range b.Entries {
		pct := 0.0
		if b.LookaheadSamples > 0 {
			pct = float64(e.Samples) / float64(b.LookaheadSamples) * 100
		}
		fmt.Fprintf(&sb, "  %-24s %5d samples %8.3f ms %5.1f%%\n",
			e.Stage, e.Samples, b.Ms(e.Samples), pct)
	}
	fmt.Fprintf(&sb, "  accounted %d/%d samples\n", b.SpentSamples(), b.LookaheadSamples)
	return sb.String()
}
