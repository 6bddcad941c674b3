package core

import (
	"testing"

	"mute/internal/audio"
)

// TestLimitNonCausalFullWindowIdentical pins the supervisor's bit-identity
// contract: a canceller whose window was shrunk and then fully restored
// before any samples flowed behaves exactly like one never touched, and an
// explicit LimitNonCausal(N) is a no-op.
func TestLimitNonCausalFullWindowIdentical(t *testing.T) {
	a := newTestLANC(t, 8)
	b := newTestLANC(t, 8)
	b.LimitNonCausal(3)
	b.LimitNonCausal(100) // clamps to N, restoring the full window
	if b.ActiveNonCausal() != 8 {
		t.Fatalf("ActiveNonCausal = %d after restore, want 8", b.ActiveNonCausal())
	}
	gen := audio.NewWhiteNoise(7, 8000, 0.5)
	e := 0.0
	for i := 0; i < 500; i++ {
		x := gen.Next()
		ya := a.StepMasked(x, e, true)
		yb := b.StepMasked(x, e, true)
		if ya != yb {
			t.Fatalf("sample %d: restored-window output %v != untouched %v", i, yb, ya)
		}
		e = 0.5*x + 0.3*ya
	}
}

// TestLimitNonCausalZeroesAndHoldsFutureTaps checks the DEGRADED-rung
// mechanics: the most-future taps are forced to zero, stay zero under
// adaptation and bulk weight loads, and resume adapting once re-enabled.
func TestLimitNonCausalZeroesAndHoldsFutureTaps(t *testing.T) {
	l := newTestLANC(t, 8)
	gen := audio.NewWhiteNoise(11, 8000, 0.5)
	e := 0.0
	for i := 0; i < 200; i++ {
		x := gen.Next()
		e = 0.5*x + 0.3*l.StepMasked(x, e, true)
	}
	full := l.Weights()
	nonzero := 0
	for _, w := range full[:4] {
		if w != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("future taps never adapted; test signal too tame")
	}

	l.LimitNonCausal(4) // disable the 4 most-future taps
	if l.ActiveNonCausal() != 4 {
		t.Fatalf("ActiveNonCausal = %d, want 4", l.ActiveNonCausal())
	}
	for i := 0; i < 200; i++ {
		x := gen.Next()
		e = 0.5*x + 0.3*l.StepMasked(x, e, true)
		for k, w := range l.Weights()[:4] {
			if w != 0 {
				t.Fatalf("disabled tap %d drifted to %v at sample %d", k, w, i)
			}
		}
	}
	// Bulk loads must respect the limit too.
	if err := l.SetWeights(full); err != nil {
		t.Fatal(err)
	}
	for k, w := range l.Weights()[:4] {
		if w != 0 {
			t.Fatalf("SetWeights resurrected disabled tap %d = %v", k, w)
		}
	}
	// Active taps did keep adapting while limited.
	if l.TapEnergy() == 0 {
		t.Fatal("active taps frozen while window was limited")
	}

	l.LimitNonCausal(8)
	for i := 0; i < 200; i++ {
		x := gen.Next()
		e = 0.5*x + 0.3*l.StepMasked(x, e, true)
	}
	resumed := 0
	for _, w := range l.Weights()[:4] {
		if w != 0 {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("re-enabled taps never resumed adapting")
	}
}
