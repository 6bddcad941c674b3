package supervisor

import (
	"testing"

	"mute/internal/audio"
)

// driveWithDrift runs the supervisor over a clean link while feeding
// ObserveDrift(ppm(t), estimable(t)) every obsEvery samples.
func driveWithDrift(t *testing.T, s *Supervisor, n, obsEvery int, ppm func(int) float64, estimable func(int) bool) Report {
	t.Helper()
	gen := audio.NewWhiteNoise(2, 8000, 0.3)
	e := 0.0
	for i := 0; i < n; i++ {
		if i%obsEvery == 0 {
			s.ObserveDrift(ppm(i), estimable(i))
		}
		x := gen.Next()
		a := s.Step(x, x, e, true)
		e = 0.6*x + a
	}
	return s.Report()
}

func driftConfig() Config {
	c := fastConfig()
	c.DriftDegradePPM = 100
	c.DriftFallbackPPM = 300
	return c
}

// TestDriftLadderDegradeAndFallback checks sustained skew walks the
// ladder: past DriftDegradePPM to DEGRADED, past DriftFallbackPPM to
// FALLBACK, on an otherwise clean link.
func TestDriftLadderDegradeAndFallback(t *testing.T) {
	lanc, fb := testPair(t)
	s, err := New(driftConfig(), lanc, fb)
	if err != nil {
		t.Fatal(err)
	}
	always := func(int) bool { return true }
	driveWithDrift(t, s, 400, 8, func(int) float64 { return 150 }, always)
	if s.state != StateDegraded {
		t.Fatalf("state %v after sustained 150 ppm (degrade at 100), want DEGRADED", s.state)
	}
	driveWithDrift(t, s, 400, 8, func(int) float64 { return 400 }, always)
	if s.state != StateFallback {
		t.Fatalf("state %v after sustained 400 ppm (fallback at 300), want FALLBACK", s.state)
	}
}

// TestDriftLadderBlocksPromotionUntilClear checks a skewed clock pins the
// ladder down, and clearing the skew lets it climb back to LANC.
func TestDriftLadderBlocksPromotionUntilClear(t *testing.T) {
	lanc, fb := testPair(t)
	s, err := New(driftConfig(), lanc, fb)
	if err != nil {
		t.Fatal(err)
	}
	always := func(int) bool { return true }
	driveWithDrift(t, s, 400, 8, func(int) float64 { return 150 }, always)
	if s.state != StateDegraded {
		t.Fatalf("setup: state %v, want DEGRADED", s.state)
	}
	// Skew persists: no promotion however long the link stays clean.
	driveWithDrift(t, s, 2000, 8, func(int) float64 { return 150 }, always)
	if s.state != StateDegraded {
		t.Fatalf("state %v while skew persists, want DEGRADED held", s.state)
	}
	// Skew clears (oscillator re-disciplined): the ladder recovers.
	driveWithDrift(t, s, 4000, 8, func(int) float64 { return 5 }, always)
	if s.state != StateLANC {
		t.Errorf("state %v after skew cleared, want LANC again", s.state)
	}
	want := [][2]State{{StateLANC, StateDegraded}, {StateDegraded, StateLANC}}
	if got := moves(s.Report()); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ladder walk %v, want %v", got, want)
	}
}

// TestDriftUnestimableCountsAsDegrade checks a persistently unestimable
// clock (estimator starved mid-run) is treated as a degrade-level breach
// but never forces FALLBACK on its own.
func TestDriftUnestimableCountsAsDegrade(t *testing.T) {
	lanc, fb := testPair(t)
	s, err := New(driftConfig(), lanc, fb)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy, estimable start, then the estimator goes dark.
	driveWithDrift(t, s, 200, 8, func(int) float64 { return 5 }, func(int) bool { return true })
	if s.state != StateLANC {
		t.Fatalf("setup: state %v, want LANC", s.state)
	}
	driveWithDrift(t, s, 2000, 8, func(int) float64 { return 0 }, func(int) bool { return false })
	if s.state != StateDegraded {
		t.Errorf("state %v with an unestimable clock, want DEGRADED (and only DEGRADED)", s.state)
	}
}

// TestDriftNeverObservedIsInert pins the opt-in contract: a supervisor
// that never sees ObserveDrift behaves exactly as one predating drift
// awareness — the clean-link run stays in LANC with no transitions.
func TestDriftNeverObservedIsInert(t *testing.T) {
	lanc, fb := testPair(t)
	s, err := New(driftConfig(), lanc, fb)
	if err != nil {
		t.Fatal(err)
	}
	rep := drive(t, s, pattern(4000))
	if s.state != StateLANC || len(rep.Transitions) != 0 {
		t.Errorf("clean run without ObserveDrift: state %v, %d transitions, want LANC and none",
			s.state, len(rep.Transitions))
	}
}
