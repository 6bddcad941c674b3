package core

import (
	"math"
	"testing"
	"testing/quick"

	"mute/internal/audio"
)

// TestLANCSurvivesAdversarialInputs drives LANC with hostile sample values
// (spikes, clipping, zeros) and asserts the state never becomes NaN/Inf —
// the robust-clipping and regularized-normalization safeguards at work.
func TestLANCSurvivesAdversarialInputs(t *testing.T) {
	l := newTestLANC(t, 8)
	rng := audio.NewRNG(99)
	hostile := []float64{0, 1, -1, 100, -100, 1e6, -1e6, 1e-12}
	for i := 0; i < 20000; i++ {
		var x, e float64
		if rng.Float64() < 0.3 {
			x = hostile[rng.Intn(len(hostile))]
			e = hostile[rng.Intn(len(hostile))]
		} else {
			x = rng.Uniform()
			e = rng.Uniform() * 0.1
		}
		l.Adapt(e)
		l.Push(x)
		a := l.AntiNoise()
		if math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("iteration %d: anti-noise became %g", i, a)
		}
	}
	for _, w := range l.Weights() {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatal("weights became non-finite")
		}
	}
}

// TestLANCZeroInputProducesZeroOutput: with no reference signal the filter
// must stay silent regardless of the error stream (no noise injection).
func TestLANCZeroInputProducesZeroOutput(t *testing.T) {
	l := newTestLANC(t, 8)
	rng := audio.NewRNG(7)
	for i := 0; i < 5000; i++ {
		l.Adapt(rng.Uniform())
		l.Push(0)
		if a := l.AntiNoise(); a != 0 {
			t.Fatalf("silent reference produced anti-noise %g", a)
		}
	}
}

// TestLANCScaleInvarianceProperty: NLMS normalization makes steady-state
// cancellation insensitive to the absolute signal level.
func TestLANCScaleInvarianceProperty(t *testing.T) {
	run := func(level float64) float64 {
		l := newTestLANC(t, 8)
		gen := audio.NewWhiteNoise(5, 8000, level)
		return runANC(t, l, gen, testHnr, testHne, testHse, 30000)
	}
	f := func(seed uint64) bool {
		level := 0.05 + float64(seed%90)/100 // 0.05 .. 0.94
		db := run(level)
		ref := run(0.5)
		return math.Abs(db-ref) < 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
