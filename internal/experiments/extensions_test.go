package experiments

import (
	"math"
	"testing"
)

func TestVariantsExperiment(t *testing.T) {
	fig, err := Variants(Config{Duration: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.Y) != 4 {
		t.Fatalf("variants should measure 4 configurations, got %d", len(s.Y))
	}
	for i, db := range s.Y {
		if db > -4 {
			t.Errorf("variant %d cancellation = %.1f dB, want < -4", i, db)
		}
	}
	if len(fig.Notes) != 4 {
		t.Error("variants should carry one note per configuration")
	}
}

func TestMobilityExperiment(t *testing.T) {
	fig, err := Mobility(Config{Duration: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.Y) != 4 {
		t.Fatalf("mobility should sweep 4 drifts, got %d", len(s.Y))
	}
	// The largest drift must not beat the static case.
	if s.Y[len(s.Y)-1] < s.Y[0]-0.5 {
		t.Errorf("1.2 m drift (%.1f dB) should not beat static (%.1f dB)", s.Y[len(s.Y)-1], s.Y[0])
	}
}

// TestMobilityStaticCellIsWallRelay holds the mobility sweep's 0 m cell to
// the variants figure's WallRelay cell bit for bit: an ear that does not
// move is the static run, through the same render and capture chain.
func TestMobilityStaticCellIsWallRelay(t *testing.T) {
	c := Config{Duration: 2}
	mob, err := Mobility(c)
	if err != nil {
		t.Fatal(err)
	}
	vars, err := Variants(c)
	if err != nil {
		t.Fatal(err)
	}
	still, wall := mob.Series[0].Y[0], vars.Series[0].Y[0]
	if math.Float64bits(still) != math.Float64bits(wall) {
		t.Errorf("mobility 0 m cell %v dB, variants WallRelay %v dB: want the same bits", still, wall)
	}
}

func TestContentionExperiment(t *testing.T) {
	fig, err := Contention(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	// Occupancy grows linearly with relays and stays small.
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] <= s.Y[i-1] {
			t.Error("occupancy should grow with relay count")
		}
	}
	if s.Y[len(s.Y)-1] > 0.05 {
		t.Errorf("64 relays occupy fraction %.3f, want < 5%%", s.Y[len(s.Y)-1])
	}
	if len(fig.Notes) < 2 {
		t.Error("contention should report occupancy and interference notes")
	}
}

func TestTrackerExperimentFollowsSource(t *testing.T) {
	fig, err := TrackerExperiment(Config{})
	if err != nil {
		t.Fatal(err)
	}
	expectLen := 4
	if len(fig.Series[0].Y) != expectLen {
		t.Fatalf("tracker should report %d segments", expectLen)
	}
	// By the end of each 2 s segment the association should match the
	// active source's relay: segment parity alternates 1, 2, 1, 2.
	want := []float64{1, 2, 1, 2}
	got := fig.Series[0].Y
	matches := 0
	for i := range want {
		if got[i] == want[i] {
			matches++
		}
	}
	if matches < 3 {
		t.Errorf("tracker matched %d/4 segments (%v), want >= 3", matches, got)
	}
}

func TestMultiSourceExperiment(t *testing.T) {
	fig, err := MultiSource(Config{Duration: 6})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.Y) != 2 {
		t.Fatal("multisource should compare 2 configurations")
	}
	single, multi := s.Y[0], s.Y[1]
	if multi >= single-2 {
		t.Errorf("multi-reference (%.1f dB) should beat single (%.1f dB) by > 2 dB", multi, single)
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("All() is minutes of simulation")
	}
	figs, err := All(Config{Duration: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 24 {
		t.Errorf("All returned %d figures, want 24", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if f.ID == "" || seen[f.ID] {
			t.Errorf("bad or duplicate figure id %q", f.ID)
		}
		seen[f.ID] = true
	}
}

func TestFig8ConvergenceTimelines(t *testing.T) {
	fig, err := Fig8(Config{Duration: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("fig8 should have 3 timelines, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) < 10 {
			t.Fatalf("%s: timeline too short", s.Name)
		}
	}
	// Continuous noise should end up with a lower (deeper) residual than
	// it started: convergence.
	a := fig.Series[0]
	if a.Y[len(a.Y)-1] >= a.Y[0] {
		t.Errorf("continuous-noise residual should decay: start %.1f end %.1f", a.Y[0], a.Y[len(a.Y)-1])
	}
}

func TestAblationRLSFasterRecovery(t *testing.T) {
	fig, err := AblationRLS(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatal("RLS ablation should have 2 series")
	}
	// RLS should end converged after the flip.
	r := fig.Series[1]
	if last := r.Y[len(r.Y)-1]; last > -20 {
		t.Errorf("RLS final misalignment = %.1f dB, want < -20", last)
	}
}
