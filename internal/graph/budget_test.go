package graph

import (
	"testing"

	"mute/internal/core"
	"mute/internal/telemetry"
)

// TestPlanBalanced pins the accounting identity: the per-stage budget
// entries always sum to the configured lookahead, whatever split the
// core planner chose, and the identity survives serialization into trace
// events.
func TestPlanBalanced(t *testing.T) {
	pd := core.PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 1}
	for _, lookahead := range []int{5, 8, 40, 64, 70, 128, 500} {
		budget, err := core.NewBudget(lookahead, pd)
		if err != nil {
			t.Fatalf("NewBudget(%d): %v", lookahead, err)
		}
		rep, _ := Plan(8000, lookahead, 0, 0, 0, pd, budget.UsableTaps)
		if got := rep.SpentSamples(); got != lookahead {
			t.Errorf("lookahead %d: entries sum to %d", lookahead, got)
		}

		tr := telemetry.NewTrace()
		rep.Record(tr)
		var sum float64
		for _, ev := range tr.Events() {
			if ev.Stage != telemetry.StageBudget {
				continue
			}
			sum += ev.Values["samples"]
		}
		if int(sum) != lookahead {
			t.Errorf("lookahead %d: traced budget events sum to %g", lookahead, sum)
		}
	}
}

// TestPlanOverdrawn checks that an impossible grant is reported, not
// silently mis-summed: the overdrawn entry keeps the identity intact.
func TestPlanOverdrawn(t *testing.T) {
	pd := core.PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 1}
	rep, align := Plan(8000, 10, 0, 0, 0, pd, 32) // 4 + 32 > 10
	if got := rep.SpentSamples(); got != 10 {
		t.Fatalf("overdrawn budget sums to %d, want 10", got)
	}
	if align != 0 {
		t.Errorf("overdrawn budget aligns the reference by %d samples, want 0", align)
	}
	found := false
	for _, e := range rep.Entries {
		if e.Stage == "overdrawn" && e.Samples < 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no negative overdrawn entry in an over-granted budget")
	}
}

// TestPlanDriftGuard checks the drift-correction debit: the resampler's
// 2-sample interpolation future appears as its own entry and the identity
// still holds when taps were planned on the reduced grant.
func TestPlanDriftGuard(t *testing.T) {
	pd := core.PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 1}
	const lookahead, guard = 64, 2
	budget, err := core.NewBudget(lookahead-guard, pd)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := Plan(8000, lookahead, 0, 0, guard, pd, budget.UsableTaps)
	if got := rep.SpentSamples(); got != lookahead {
		t.Errorf("drift-guarded budget sums to %d, want %d", got, lookahead)
	}
	found := false
	for _, e := range rep.Entries {
		if e.Stage == "drift.resampler" && e.Samples == guard {
			found = true
		}
	}
	if !found {
		t.Error("no drift.resampler entry in a drift-corrected budget")
	}
}

// TestPlanBlockLatency pins the FDAF kind's budget: the block costs the
// taps no delay (its anti-noise sample t depends only on reference
// samples up to t), so no fdaf.block_latency entry is debited, the
// non-causal grant matches the sample-domain kind's, and the alignment
// spends the rest.
func TestPlanBlockLatency(t *testing.T) {
	cfg := validConfig(256)
	cfg.MaxNonCausalTaps = 16
	td, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FDAF = &FDAFParams{BlockSize: 16}
	fd, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fd.Spend.Entries {
		if e.Stage == "fdaf.block_latency" {
			t.Errorf("FDAF budget debits %d samples of block latency", e.Samples)
		}
	}
	if fd.NonCausalTaps != td.NonCausalTaps || fd.align != td.align {
		t.Errorf("FDAF plans N=%d, align %d; the sample-domain kind N=%d, align %d",
			fd.NonCausalTaps, fd.align, td.NonCausalTaps, td.align)
	}
	if fd.align != 64-4-16 || fd.Spend.SpentSamples() != cfg.Lookahead {
		t.Errorf("FDAF align = %d, spend %d; want 44 of %d", fd.align, fd.Spend.SpentSamples(), cfg.Lookahead)
	}
}
