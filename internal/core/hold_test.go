package core

import (
	"testing"

	"mute/internal/audio"
	"mute/internal/dsp"
)

// sameWeights reports exact equality of two weight snapshots.
func sameWeights(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHoldAdaptationFreezesWithoutLossAware checks the drift pipeline's
// rate-jump freeze works on a plain (non-loss-aware) LANC: weights stay
// exactly fixed for the hold, then adaptation resumes through the ramp.
func TestHoldAdaptationFreezesWithoutLossAware(t *testing.T) {
	l := newTestLANC(t, 8)
	gen := audio.NewWhiteNoise(3, 8000, 0.5)
	refCh := dsp.NewStreamConvolver(testHnr)
	priCh := dsp.NewStreamConvolver(testHne)
	secCh := dsp.NewStreamConvolver(testHse)
	N := l.cfg.NonCausalTaps
	noise := audio.Render(gen, 4000+N+1)
	ref := refCh.ProcessBlock(noise)

	e := 0.0
	step := func(tt int) {
		a := l.Step(ref[tt+N], e)
		e = priCh.Process(noise[tt]) + secCh.Process(a)
	}
	for tt := 0; tt < 500; tt++ {
		step(tt)
	}
	before := l.Weights()

	const hold, ramp = 200, 100
	l.HoldAdaptation(hold, ramp)
	for tt := 500; tt < 500+hold; tt++ {
		step(tt)
		if !sameWeights(l.Weights(), before) {
			t.Fatalf("weights moved %d samples into a %d-sample hold", tt-500+1, hold)
		}
	}
	for tt := 500 + hold; tt < 4000; tt++ {
		step(tt)
	}
	if sameWeights(l.Weights(), before) {
		t.Error("weights never moved after the hold expired: adaptation did not resume")
	}
}

// TestHoldAdaptationNeverCalledIsBitIdentical pins the opt-in contract:
// a LANC that is never held steps bit-identically to one without the
// feature in play, including on the loss-aware path.
func TestHoldAdaptationNeverCalledIsBitIdentical(t *testing.T) {
	plain := newTestLANC(t, 8)
	held := newTestLANC(t, 8)
	held.HoldAdaptation(0, 0) // hold <= 0 must be a no-op
	gen := audio.NewWhiteNoise(4, 8000, 0.5)
	refCh := dsp.NewStreamConvolver(testHnr)
	priCh := dsp.NewStreamConvolver(testHne)
	secCh1 := dsp.NewStreamConvolver(testHse)
	secCh2 := dsp.NewStreamConvolver(testHse)
	N := plain.cfg.NonCausalTaps
	noise := audio.Render(gen, 2000+N+1)
	ref := refCh.ProcessBlock(noise)

	e1, e2 := 0.0, 0.0
	for tt := 0; tt < 2000; tt++ {
		d := priCh.Process(noise[tt])
		a1 := plain.Step(ref[tt+N], e1)
		a2 := held.Step(ref[tt+N], e2)
		if a1 != a2 {
			t.Fatalf("sample %d: anti-noise %v vs %v — a never-held LANC diverged", tt, a1, a2)
		}
		e1 = d + secCh1.Process(a1)
		e2 = d + secCh2.Process(a2)
	}
	if !sameWeights(plain.Weights(), held.Weights()) {
		t.Error("final weights differ between plain and never-held LANC")
	}
}

// TestHoldAdaptationLongerFreezeWins checks an in-progress longer freeze
// is not shortened by a later, shorter hold.
func TestHoldAdaptationLongerFreezeWins(t *testing.T) {
	l := newTestLANC(t, 8)
	gen := audio.NewWhiteNoise(5, 8000, 0.5)
	refCh := dsp.NewStreamConvolver(testHnr)
	priCh := dsp.NewStreamConvolver(testHne)
	secCh := dsp.NewStreamConvolver(testHse)
	N := l.cfg.NonCausalTaps
	noise := audio.Render(gen, 1000+N+1)
	ref := refCh.ProcessBlock(noise)

	e := 0.0
	for tt := 0; tt < 300; tt++ {
		a := l.Step(ref[tt+N], e)
		e = priCh.Process(noise[tt]) + secCh.Process(a)
	}
	l.HoldAdaptation(400, 50)
	l.HoldAdaptation(10, 50) // must not shorten the 400-sample freeze
	before := l.Weights()
	for tt := 300; tt < 700; tt++ {
		a := l.Step(ref[tt+N], e)
		e = priCh.Process(noise[tt]) + secCh.Process(a)
	}
	if !sameWeights(l.Weights(), before) {
		t.Error("a later shorter hold cut the in-progress freeze short")
	}
}
