package core

import (
	"math"
	"testing"

	"mute/internal/audio"
	"mute/internal/dsp"
)

// runANCMasked is runANC with a lossy reference leg: whenever conceal(t)
// reports true the forwarded reference sample is replaced by the zero the
// jitter buffer would substitute, and the canceller is told so via
// StepMasked. The acoustic leg (primary noise, error mic) is unaffected —
// loss only happens on the RF link.
func runANCMasked(t *testing.T, l *LANC, gen audio.Generator, conceal func(int) bool, n int) float64 {
	t.Helper()
	N := l.cfg.NonCausalTaps
	refCh := dsp.NewStreamConvolver(testHnr)
	priCh := dsp.NewStreamConvolver(testHne)
	secCh := dsp.NewStreamConvolver(testHse)
	noise := audio.Render(gen, n+N+1)
	ref := refCh.ProcessBlock(noise)
	var resPow, priPow float64
	e := 0.0
	for tt := 0; tt < n; tt++ {
		x, real := ref[tt+N], true
		if conceal(tt + N) {
			x, real = 0, false
		}
		a := l.StepMasked(x, e, real)
		d := priCh.Process(noise[tt])
		e = d + secCh.Process(a)
		if tt >= 3*n/4 {
			resPow += e * e
			priPow += d * d
		}
	}
	if priPow == 0 {
		return 0
	}
	return 10 * math.Log10(resPow/priPow)
}

// burstConceal builds a deterministic burst-loss mask: every period
// samples, burst consecutive samples are concealed (two lost 80-sample
// frames back to back at period 2000 ≈ 8% loss).
func burstConceal(period, burst int) func(int) bool {
	return func(t int) bool { return t%period < burst }
}

func TestLossAwareBitIdenticalAtZeroLoss(t *testing.T) {
	// With no concealment the loss-aware path must be arithmetically
	// identical to the plain one — gain 1 multiplies through exactly.
	plain := newTestLANC(t, 16)
	aware := newTestLANC(t, 16, func(c *Config) { c.LossAware = true })
	plain.cfg.Leak = 0.001 // exercise the leaky fused branch too
	aware.cfg.Leak = 0.001
	gen := audio.NewWhiteNoise(5, 8000, 0.5)
	refCh := dsp.NewStreamConvolver(testHnr)
	noise := audio.Render(gen, 4000)
	ref := refCh.ProcessBlock(noise)
	e := 0.0
	for tt := 0; tt+16 < len(ref); tt++ {
		ap := plain.Step(ref[tt+16], e)
		aa := aware.StepMasked(ref[tt+16], e, true)
		if ap != aa {
			t.Fatalf("t=%d: outputs diverged: %g vs %g", tt, ap, aa)
		}
		e = 0.3*ap + 0.1*float64(tt%7) // arbitrary but identical residual feed
	}
	wp, wa := plain.Weights(), aware.Weights()
	for i := range wp {
		if wp[i] != wa[i] {
			t.Fatalf("weight %d diverged: %g vs %g", i, wp[i], wa[i])
		}
	}
}

func TestLossAwareFreezeHoldsWeights(t *testing.T) {
	// Converge, then feed a concealed burst with a large residual: the
	// weights — including the leak term — must not move at all while the
	// zero sits in the gradient window, and adaptation must resume after.
	l := newTestLANC(t, 16, func(c *Config) {
		c.LossAware = true
		c.Leak = 0.01
	})
	gen := audio.NewWhiteNoise(6, 8000, 0.5)
	runANC(t, l, gen, testHnr, testHne, testHse, 20000)
	// The concealed sample's own step still adapts for ePrev (the zero has
	// not reached the gradient window yet); the freeze starts on the next
	// sample and lasts while the guard covers the window
	// (N + L + ErrorDelay + 2 = 42 here).
	l.StepMasked(0, 0.9, false)
	frozen := l.Weights()
	for i := 0; i < 41; i++ {
		got := l.Weights()
		for j := range got {
			if got[j] != frozen[j] {
				t.Fatalf("weight %d moved during freeze (step %d): %g vs %g",
					j, i, got[j], frozen[j])
			}
		}
		l.StepMasked(0.4, 0.9, true)
	}
	// Guard has expired; the ramp lets adaptation move weights again.
	for i := 0; i < 200; i++ {
		l.StepMasked(0.4, 0.9, true)
	}
	moved := false
	for j, w := range l.Weights() {
		if w != frozen[j] {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("adaptation never resumed after the recovery ramp")
	}
}

func TestLossAwareSplitPathFreezes(t *testing.T) {
	// The split Adapt/PushMasked/AntiNoise path (live binaries) must freeze
	// exactly like the fused StepMasked path.
	l := newTestLANC(t, 8, func(c *Config) { c.LossAware = true })
	gen := audio.NewWhiteNoise(7, 8000, 0.5)
	runANC(t, l, gen, testHnr, testHne, testHse, 10000)
	frozen := l.Weights()
	l.PushMasked(0, false)
	for i := 0; i < 30; i++ {
		l.Adapt(0.8)
		l.PushMasked(0.3, true)
		_ = l.AntiNoise()
	}
	for j, w := range l.Weights() {
		if w != frozen[j] {
			t.Fatalf("split path adapted during freeze: weight %d %g vs %g", j, w, frozen[j])
		}
	}
}

func TestLossAwareBeatsNaiveUnderBurstLoss(t *testing.T) {
	// The headline claim: under burst loss, freezing on concealment holds
	// cancellation while naive adaptation against zero-filled audio
	// corrupts the filter every burst edge.
	const n = 60000
	conceal := burstConceal(2000, 160) // 8% loss in 20 ms bursts
	naive := newTestLANC(t, 16)
	aware := newTestLANC(t, 16, func(c *Config) { c.LossAware = true })
	naiveDB := runANCMasked(t, naive, audio.NewWhiteNoise(1, 8000, 0.5), conceal, n)
	awareDB := runANCMasked(t, aware, audio.NewWhiteNoise(1, 8000, 0.5), conceal, n)
	if awareDB > naiveDB-3 {
		t.Errorf("loss-aware = %.1f dB, naive = %.1f dB; want ≥ 3 dB better", awareDB, naiveDB)
	}
	// Degradation must be bounded by the passive floor: never louder than
	// no anti-noise at all.
	if awareDB > 0 {
		t.Errorf("loss-aware residual above passive floor: %.1f dB", awareDB)
	}
}

func TestLossAwareNeverDivergesUnderHeavyLoss(t *testing.T) {
	// Adversarial regime: 40% of samples concealed in long bursts. The
	// loss-aware canceller may stop helping but must never amplify.
	conceal := burstConceal(1000, 400)
	aware := newTestLANC(t, 16, func(c *Config) { c.LossAware = true })
	db := runANCMasked(t, aware, audio.NewWhiteNoise(2, 8000, 0.5), conceal, 40000)
	if db > 1 {
		t.Errorf("loss-aware diverged under heavy loss: %.1f dB above passive", db)
	}
}

func TestLossAwareConfigValidation(t *testing.T) {
	cfg := Config{NonCausalTaps: 8, CausalTaps: 8, Mu: 0.1,
		SecondaryPath: []float64{1}, LossAware: true}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.cfg.recoveryRamp(); got != 256 {
		t.Errorf("recovery ramp for a 16-tap window = %d, want the 256 floor", got)
	}
	wide := cfg
	wide.NonCausalTaps, wide.CausalTaps = 100, 300
	if got := wide.recoveryRamp(); got != 401 {
		t.Errorf("recovery ramp for a 400-tap window = %d, want N+L+1 = 401", got)
	}
}
