package anc

import (
	"math"
	"testing"
	"testing/quick"

	"mute/internal/audio"
	"mute/internal/dsp"
)

func TestLMSConfigValidate(t *testing.T) {
	good := LMSConfig{Taps: 8, Mu: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("good config invalid: %v", err)
	}
	bad := []LMSConfig{
		{Taps: 0, Mu: 0.1},
		{Taps: 8, Mu: 0},
		{Taps: 8, Mu: 0.1, Leak: 1},
		{Taps: 8, Mu: 0.1, Leak: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
	if _, err := NewAdaptiveFilter(bad[0]); err == nil {
		t.Error("constructor should reject invalid config")
	}
}

func TestLMSIdentifiesFIRSystem(t *testing.T) {
	// Classic system identification: LMS should converge to the unknown
	// channel when driven by white noise.
	h := []float64{0.8, -0.3, 0.15, 0.05}
	f, err := NewAdaptiveFilter(LMSConfig{Taps: 8, Mu: 0.4, Normalized: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := audio.NewRNG(1)
	ch := dsp.NewStreamConvolver(h)
	for i := 0; i < 20000; i++ {
		x := rng.Uniform()
		d := ch.Process(x)
		f.Step(x, d)
	}
	if m := f.Misalignment(h); m > 1e-4 {
		t.Errorf("misalignment = %g, want < 1e-4", m)
	}
}

func TestNLMSFasterThanLMSUnderLevelChange(t *testing.T) {
	// NLMS normalizes by input power; with a quiet input, plain LMS with
	// the same mu converges far more slowly.
	h := []float64{0.5, 0.2}
	run := func(norm bool) float64 {
		f, err := NewAdaptiveFilter(LMSConfig{Taps: 4, Mu: 0.2, Normalized: norm})
		if err != nil {
			t.Fatal(err)
		}
		rng := audio.NewRNG(2)
		ch := dsp.NewStreamConvolver(h)
		const level = 0.05 // quiet input
		for i := 0; i < 3000; i++ {
			x := level * rng.Uniform()
			d := ch.Process(x)
			f.Step(x, d)
		}
		return f.Misalignment(h)
	}
	if mn, ml := run(true), run(false); mn >= ml {
		t.Errorf("NLMS misalignment %g should beat LMS %g on quiet input", mn, ml)
	}
}

func TestLMSLeakBoundsWeights(t *testing.T) {
	f, err := NewAdaptiveFilter(LMSConfig{Taps: 4, Mu: 0.1, Leak: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := audio.NewRNG(3)
	for i := 0; i < 5000; i++ {
		x := rng.Uniform()
		// Desired signal uncorrelated with x: weights should stay small.
		d := rng.Uniform()
		f.Step(x, d)
	}
	for _, w := range f.Weights() {
		if math.Abs(w) > 0.5 {
			t.Errorf("leaky LMS weight %g grew too large", w)
		}
	}
}

func TestAdaptiveFilterSetWeightsAndReset(t *testing.T) {
	f, err := NewAdaptiveFilter(LMSConfig{Taps: 3, Mu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetWeights([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Push(1)
	if y := f.Output(); y != 1 {
		t.Errorf("output = %g, want 1 (w[0]*x[0])", y)
	}
	if err := f.SetWeights([]float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	f.Reset()
	f.Push(1)
	if y := f.Output(); y != 0 {
		t.Errorf("after reset output = %g, want 0", y)
	}
}

func TestMisalignmentPerfect(t *testing.T) {
	f, _ := NewAdaptiveFilter(LMSConfig{Taps: 3, Mu: 0.1})
	h := []float64{0.5, 0.25, 0.1}
	if err := f.SetWeights(h); err != nil {
		t.Fatal(err)
	}
	if m := f.Misalignment(h); m != 0 {
		t.Errorf("perfect weights misalignment = %g", m)
	}
	if !math.IsInf(f.Misalignment([]float64{0, 0, 0}), 1) {
		t.Error("zero reference should give +Inf misalignment")
	}
}

func TestLMSConvergenceMonotoneProperty(t *testing.T) {
	// Property: on stationary white noise, the long-run error power after
	// convergence is far below the initial error power.
	f := func(seed uint64) bool {
		h := []float64{0.7, -0.2, 0.1}
		af, err := NewAdaptiveFilter(LMSConfig{Taps: 6, Mu: 0.3, Normalized: true})
		if err != nil {
			return false
		}
		rng := audio.NewRNG(seed)
		ch := dsp.NewStreamConvolver(h)
		var early, late float64
		const n = 8000
		for i := 0; i < n; i++ {
			x := rng.Uniform()
			d := ch.Process(x)
			_, e := af.Step(x, d)
			if i < 200 {
				early += e * e
			}
			if i >= n-200 {
				late += e * e
			}
		}
		return late < early/10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestEstimateSecondaryPath(t *testing.T) {
	truePath := []float64{0.6, 0.3, -0.1, 0.05}
	est, err := EstimateSecondaryPath(truePath, 8, 20000, 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for k := range est {
		var hk float64
		if k < len(truePath) {
			hk = truePath[k]
		}
		d := est[k] - hk
		num += d * d
		den += hk * hk
	}
	if num/den > 1e-3 {
		t.Errorf("secondary path misalignment = %g, want < 1e-3", num/den)
	}
}

func TestEstimateSecondaryPathErrors(t *testing.T) {
	if _, err := EstimateSecondaryPath(nil, 8, 100, 0, 1); err == nil {
		t.Error("empty path should error")
	}
	if _, err := EstimateSecondaryPath([]float64{1}, 0, 100, 0, 1); err == nil {
		t.Error("zero taps should error")
	}
}
