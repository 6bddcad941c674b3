package rf

import (
	"math"
	"testing"

	"mute/internal/audio"
)

// TestFadePenaltyShape pins the trapezoid: ramp down, hold at DepthdB,
// ramp back, zero outside.
func TestFadePenaltyShape(t *testing.T) {
	f := Fade{StartSample: 100, RampSamples: 10, HoldSamples: 20, DepthdB: 30}
	cases := []struct {
		i    uint64
		want float64
	}{
		{0, 0}, {99, 0},
		{100, 3}, {109, 30}, // down-ramp: first step to full depth
		{110, 30}, {129, 30}, // hold
		{130, 30}, {139, 3}, // up-ramp back toward clear
		{140, 0}, {1000, 0},
	}
	for _, c := range cases {
		if got := f.penaltyDB(c.i); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("penaltyDB(%d) = %g, want %g", c.i, got, c.want)
		}
	}
	// Zero ramp means a step fade.
	step := Fade{StartSample: 5, HoldSamples: 3, DepthdB: 20}
	if step.penaltyDB(4) != 0 || step.penaltyDB(5) != 20 || step.penaltyDB(7) != 20 || step.penaltyDB(8) != 0 {
		t.Error("zero-ramp fade is not a clean step")
	}
}

// TestFadeDegradesAudioSNRInWindow runs a tone through the FM link with a
// deep fade in the middle and checks that recovered-audio error energy is
// concentrated in the fade window while the surrounding audio is clean —
// and that a scheduled fade leaves samples outside its window bit-identical
// to a channel with no fades.
func TestFadeDegradesAudioSNRInWindow(t *testing.T) {
	p := DefaultFMParams()
	msg := audio.Render(audio.NewWhiteNoise(3, p.AudioRate, 0.4), 4000)
	ch := DefaultChannel()
	// Fade audio samples [1500, 2500): baseband units are ×Oversample.
	os := uint64(p.Oversample)
	faded := ch
	faded.Fades = []Fade{{
		StartSample: 1500 * os,
		RampSamples: 50 * os,
		HoldSamples: 900 * os,
		DepthdB:     40,
	}}

	got, err := link(p, faded, msg)
	if err != nil {
		t.Fatal(err)
	}
	errPow := func(lo, hi int) float64 {
		var e float64
		for i := lo; i < hi; i++ {
			d := got[i] - msg[i]
			e += d * d
		}
		return e / float64(hi-lo)
	}
	before := errPow(500, 1400)
	inside := errPow(1600, 2400)
	after := errPow(2700, 3900)
	if inside < 100*before {
		t.Errorf("fade window error %g not far above pre-fade %g", inside, before)
	}
	if after > 10*before {
		t.Errorf("post-fade error %g did not recover toward pre-fade %g", after, before)
	}

	// Bit-identity outside any window: a fade scheduled past the end of
	// the signal must not perturb a single sample.
	tx, err := Modulate(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Apply(p, ch, tx)
	if err != nil {
		t.Fatal(err)
	}
	future := ch
	future.Fades = []Fade{{StartSample: uint64(len(tx) + 1), HoldSamples: 10, DepthdB: 20}}
	shifted, err := Apply(p, future, tx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != shifted[i] {
			t.Fatalf("sample %d differs with an out-of-range fade scheduled", i)
		}
	}

	// Non-positive depth is rejected.
	bad := ch
	bad.Fades = []Fade{{DepthdB: 0, HoldSamples: 1}}
	if _, err := Apply(p, bad, tx); err == nil {
		t.Error("zero-depth fade should fail validation")
	}
}
