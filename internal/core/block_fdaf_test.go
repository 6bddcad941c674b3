package core

import (
	"math"
	"testing"

	"mute/internal/audio"
)

// TestBlockFDAFEquivalentToTimeDomainLANC is the tolerance-pinned
// equivalence suite: the partitioned frequency-domain filter and the
// time-domain LANC run the same scene (the channels the golden traces use),
// and the block filter's steady-state cancellation must stay within a
// pinned band of the time-domain result. Block adaptation is delayed by one
// block, so exact sample equality is not the contract — matching converged
// cancellation is.
func TestBlockFDAFEquivalentToTimeDomainLANC(t *testing.T) {
	const n = 64000
	l := newTestLANC(t, 16) // 16 non-causal + 24 causal = 40 taps
	tdDB := runANC(t, l, audio.NewWhiteNoise(1, 8000, 0.5), testHnr, testHne, testHse, n)

	bl, err := NewBlock(BlockConfig{
		FilterTaps: 48, BlockSize: 8, Mu: 0.4, SecondaryPath: testHse,
	})
	if err != nil {
		t.Fatal(err)
	}
	fdDB := runBlockANC(t, bl, audio.NewWhiteNoise(1, 8000, 0.5), 24, testHnr, testHne, testHse, n)

	if tdDB > -15 {
		t.Fatalf("time-domain baseline only reached %.1f dB", tdDB)
	}
	if fdDB > -15 {
		t.Errorf("partitioned FDAF reached %.1f dB, want < -15", fdDB)
	}
	// Pinned equivalence band: the FDAF may trail the sample-by-sample
	// filter (block-delayed adaptation) but must stay within 12 dB of it,
	// and must not be wildly better either (that would mean the harness is
	// not comparing like for like).
	if diff := fdDB - tdDB; diff > 12 || diff < -12 {
		t.Errorf("FDAF %.1f dB vs time-domain %.1f dB: outside the ±12 dB equivalence band", fdDB, tdDB)
	}
}

// TestBlockFDAFPartitionEdgeCases covers B not dividing M and the
// single-partition degenerate case.
func TestBlockFDAFPartitionEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		taps, b    int
		partitions int
	}{
		{"short last partition", 50, 8, 7}, // 6 full partitions + 2 taps
		{"single partition", 12, 16, 1},    // M < B
		{"exact multiple", 64, 16, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bl, err := NewBlock(BlockConfig{
				FilterTaps: tc.taps, BlockSize: tc.b, Mu: 0.4, SecondaryPath: testHse,
			})
			if err != nil {
				t.Fatal(err)
			}
			if bl.np != tc.partitions {
				t.Fatalf("partitions = %d, want %d", bl.np, tc.partitions)
			}
			db := runBlockANC(t, bl, audio.NewWhiteNoise(1, 8000, 0.5), 24, testHnr, testHne, testHse, 64000)
			if db > -10 {
				t.Errorf("cancellation = %.1f dB, want < -10", db)
			}
			if w := bl.Weights(); len(w) != tc.taps {
				t.Errorf("weights length %d, want %d", len(w), tc.taps)
			}
		})
	}
}

// TestBlockFDAFLimitNonCausal verifies the non-causal limiter: zeroed
// future taps stay zero through further adaptation, and restoring the
// window lets them adapt again.
func TestBlockFDAFLimitNonCausal(t *testing.T) {
	bl, err := NewBlock(BlockConfig{
		FilterTaps: 48, BlockSize: 8, Mu: 0.4, SecondaryPath: testHse,
		NonCausalTaps: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bl.nonCausN != 16 || bl.ActiveNonCausal() != 16 {
		t.Fatalf("non-causal taps: N=%d active=%d", bl.nonCausN, bl.ActiveNonCausal())
	}
	runBlockANC(t, bl, audio.NewWhiteNoise(1, 8000, 0.5), 24, testHnr, testHne, testHse, 16000)

	bl.LimitNonCausal(4) // skip = 12: taps 0..11 forced to zero
	if bl.ActiveNonCausal() != 4 {
		t.Fatalf("active non-causal = %d, want 4", bl.ActiveNonCausal())
	}
	w := bl.Weights()
	for i := 0; i < 12; i++ {
		// Zeroing happens in the time domain but Weights() reconstructs
		// through a transform round trip, so "zero" means ~1 ulp here.
		if math.Abs(w[i]) > 1e-15 {
			t.Fatalf("tap %d = %g after LimitNonCausal(4), want 0", i, w[i])
		}
	}
	// Further adaptation must not resurrect the disabled taps. The skip
	// window (12) spans partition 0 (taps 0..7) entirely and partition 1
	// partially — both code paths.
	runBlockANC(t, bl, audio.NewWhiteNoise(2, 8000, 0.5), 24, testHnr, testHne, testHse, 16000)
	w = bl.Weights()
	var live float64
	for i, v := range w {
		if i < 12 {
			if math.Abs(v) > 1e-15 {
				t.Fatalf("tap %d = %g adapted while disabled", i, v)
			}
		} else {
			live += v * v
		}
	}
	if live == 0 {
		t.Error("live taps should keep adapting")
	}

	// Restoring the window re-enables adaptation of the leading taps.
	bl.LimitNonCausal(16)
	runBlockANC(t, bl, audio.NewWhiteNoise(3, 8000, 0.5), 24, testHnr, testHne, testHse, 16000)
	w = bl.Weights()
	var future float64
	for i := 0; i < 12; i++ {
		future += w[i] * w[i]
	}
	if future == 0 {
		t.Error("restored non-causal taps should adapt again")
	}
}

// TestBlockFDAFProcessAllocFree pins the steady-state block path at zero
// allocations per block.
func TestBlockFDAFProcessAllocFree(t *testing.T) {
	bl, err := NewBlock(BlockConfig{
		FilterTaps: 512, BlockSize: 64, Mu: 0.4, SecondaryPath: testHse,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	e := make([]float64, 64)
	out := make([]float64, 64)
	for i := range x {
		x[i] = 0.3
		e[i] = 0.01
	}
	// Warm-up primes the adapt path.
	for i := 0; i < 4; i++ {
		if err := bl.ProcessBlockInto(out, x, e); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := bl.ProcessBlockInto(out, x, e); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ProcessBlockInto allocated %.1f times per run, want 0", allocs)
	}
}

// TestBlockFDAFRejectsNonPow2Block pins the power-of-two block-size
// contract the partitioned transform relies on.
func TestBlockFDAFRejectsNonPow2Block(t *testing.T) {
	_, err := NewBlock(BlockConfig{
		FilterTaps: 64, BlockSize: 12, Mu: 0.4, SecondaryPath: testHse,
	})
	if err == nil {
		t.Error("non-power-of-two block size should be rejected")
	}
}
