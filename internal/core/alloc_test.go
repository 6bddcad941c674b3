package core

import "testing"

// TestLANCStepAllocatesNothing pins the steady-state per-sample canceller:
// after construction, StepMasked must not allocate.
func TestLANCStepAllocatesNothing(t *testing.T) {
	l, err := New(Config{
		NonCausalTaps: 32, CausalTaps: 160, Mu: 0.05, Normalized: true,
		SecondaryPath: []float64{0.85, 0.22, 0.06},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		x := float64(i%17)*0.05 - 0.4
		l.StepMasked(x, 0.01*x, true)
		i++
	}); n != 0 {
		t.Errorf("LANC.StepMasked allocated %.1f times per run", n)
	}
}

// TestLANCPrefilterAllocatesNothing pins the block-announced path: once
// the announce buffer has grown to the block size, Prefilter and the
// StepMasked calls consuming it must not allocate.
func TestLANCPrefilterAllocatesNothing(t *testing.T) {
	l, err := New(Config{
		NonCausalTaps: 32, CausalTaps: 160, Mu: 0.05, Normalized: true,
		SecondaryPath: []float64{0.85, 0.22, 0.06},
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = float64(i%17)*0.05 - 0.4
	}
	if n := testing.AllocsPerRun(50, func() {
		l.Prefilter(xs)
		for _, x := range xs {
			l.StepMasked(x, 0.01*x, true)
		}
	}); n != 0 {
		t.Errorf("LANC.Prefilter + StepMasked allocated %.1f times per run", n)
	}
}

// TestBlockLANCLimitNonCausalAllocatesNothing pins the block canceller's
// tap-window and warm-start controls, which the fleet's pressure ladder
// and session handoff call between ticks: the weight transforms run in
// the block's own scratch, so neither call allocates.
func TestBlockLANCLimitNonCausalAllocatesNothing(t *testing.T) {
	bl, err := NewBlock(BlockConfig{
		FilterTaps: 64, BlockSize: 16, SecondaryPath: []float64{0.85, 0.22, 0.06},
		NonCausalTaps: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 64)
	for i := range w {
		w[i] = float64(i%7)*0.01 - 0.03
	}
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		bl.LimitNonCausal(4 + i%2*20) // shrink across a partition, then restore
		i++
	}); n != 0 {
		t.Errorf("BlockLANC.LimitNonCausal allocated %.1f times per call", n)
	}
	bl.LimitNonCausal(8)
	if n := testing.AllocsPerRun(50, func() {
		if err := bl.SetWeights(w); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("BlockLANC.SetWeights allocated %.1f times per call", n)
	}
}
