package supervisor

import "testing"

// TestLinkHealthRuns pins the estimator's arithmetic and run bookkeeping:
// the EWMA follows x += α(c − x) bit for bit, a real sample ends the
// concealed run and extends the clean one, and vice versa.
func TestLinkHealthRuns(t *testing.T) {
	const alpha = 1.0 / 16
	h := NewLinkHealth(alpha)
	want := 0.0
	flags := []bool{true, true, false, false, false, true, false, true, true, true}
	concealed, clean := 0, 0
	for i, real := range flags {
		h.Observe(real)
		c := 1.0
		if real {
			c = 0
			concealed, clean = 0, clean+1
		} else {
			concealed, clean = concealed+1, 0
		}
		want += alpha * (c - want)
		if h.EWMA() != want || h.ConcealedRun() != concealed || h.CleanRun() != clean {
			t.Fatalf("after flag %d: (ewma %v, concealed %d, clean %d), want (%v, %d, %d)",
				i, h.EWMA(), h.ConcealedRun(), h.CleanRun(), want, concealed, clean)
		}
	}
}

// TestLinkHealthRejoinKeepsEWMA pins the rejoin semantics the relay mesh
// relies on: ResetRuns restarts both runs — a returning stream must
// re-earn its warm-up — but keeps the smoothed concealment ratio, so a
// flapping link does not look pristine on every return. Only a fresh
// estimator starts from zero.
func TestLinkHealthRejoinKeepsEWMA(t *testing.T) {
	h := NewLinkHealth(1.0 / 8)
	for i := 0; i < 20; i++ {
		h.Observe(false)
	}
	for i := 0; i < 5; i++ {
		h.Observe(true)
	}
	ewma := h.EWMA()
	if ewma <= 0 || h.CleanRun() != 5 {
		t.Fatalf("setup: ewma %v, clean run %d", ewma, h.CleanRun())
	}
	h.ResetRuns()
	if h.EWMA() != ewma {
		t.Errorf("ResetRuns changed the EWMA: %v → %v", ewma, h.EWMA())
	}
	if h.ConcealedRun() != 0 || h.CleanRun() != 0 {
		t.Errorf("ResetRuns left runs (concealed %d, clean %d)", h.ConcealedRun(), h.CleanRun())
	}
	h.Observe(true)
	if h.CleanRun() != 1 || h.EWMA() >= ewma {
		t.Errorf("after one real sample: clean run %d, ewma %v (was %v)", h.CleanRun(), h.EWMA(), ewma)
	}
	if fresh := NewLinkHealth(1.0 / 8); fresh.EWMA() != 0 || fresh.CleanRun() != 0 || fresh.ConcealedRun() != 0 {
		t.Errorf("a fresh estimator is not pristine: %+v", fresh)
	}
}
