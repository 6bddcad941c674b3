package experiments

import (
	"reflect"
	"strings"
	"testing"

	"mute/internal/supervisor"
)

// TestDriftSweepSmoke checks the sweep's shape and headline ordering at a
// short duration: at the steepest skew the corrected loop must beat naive
// playout, and the zero-skew column must agree across policies that share
// a path (naive and corrected are bit-identical there by the clean-clock
// pin, so their scores coincide exactly).
func TestDriftSweepSmoke(t *testing.T) {
	fig, err := DriftSweep(Config{Duration: 4, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "drift" || len(fig.Series) != 3 {
		t.Fatalf("figure %q has %d series, want drift/3", fig.ID, len(fig.Series))
	}
	byName := map[string][]float64{}
	for _, s := range fig.Series {
		byName[s.Name] = s.Y
	}
	if byName["naive"][0] != byName["corrected"][0] {
		t.Errorf("zero-skew column differs: naive %.4f dB vs corrected %.4f dB (clean-clock identity broken)",
			byName["naive"][0], byName["corrected"][0])
	}
	last := len(fig.Series[0].Y) - 1
	if corrected, naive := byName["corrected"][last], byName["naive"][last]; corrected >= naive {
		t.Errorf("steepest skew: corrected %.2f dB not better than naive %.2f dB", corrected, naive)
	}
	var estNote bool
	for _, n := range fig.Notes {
		if strings.Contains(n, "estimator") {
			estNote = true
		}
	}
	if !estNote {
		t.Error("figure lacks the estimator note")
	}
}

// TestDriftSweepDeterministicAcrossWorkers pins the drift stage's
// determinism contract at the experiment layer: the same seeds yield an
// identical figure — every curve and note — whether the cells run
// sequentially or on eight workers.
func TestDriftSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Figure {
		t.Helper()
		fig, err := DriftSweep(Config{Duration: 3, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("figure differs between Workers=1 and Workers=8:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestDriftAcceptance is the PR's acceptance criterion: over a 60 s run at
// 100 ppm constant skew, the corrected pipeline stays within 1.5 dB of the
// clean-clock baseline while naive playout — whose alignment exits the tap
// span around the 35 s mark — gives up at least 6 dB.
func TestDriftAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("60 s acceptance run")
	}
	c := Config{Duration: 60, Seed: 1, Workers: 1}.Defaults()
	score := func(ppm float64, policy driftPolicy) float64 {
		cell := driftCell{cfg: c, policy: policy, ppm: ppm, linkSeed: c.Seed * 2027, noiseSeed: c.Seed}
		db, _, _, err := cell.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	baseline := score(0, driftNaive)
	naive := score(100, driftNaive)
	corrected := score(100, driftCorrected)
	t.Logf("baseline %.2f dB, naive %.2f dB, corrected %.2f dB", baseline, naive, corrected)
	if corrected-baseline > 1.5 {
		t.Errorf("corrected %.2f dB more than 1.5 dB off the clean-clock baseline %.2f dB", corrected, baseline)
	}
	if naive-baseline < 6 {
		t.Errorf("naive %.2f dB degraded less than 6 dB from baseline %.2f dB — the cell no longer stresses skew", naive, baseline)
	}
}

// TestCorrectedSupervisedDriftCellHoldsLANC runs the drift cell with the
// resampler and the ladder together at 200 ppm under the cell's 60/120
// ppm drift rungs. The ladder watches the skew left after correction, so
// it must not demote a stream the resampler already holds aligned: no
// ladder move, and within 0.5 dB of the unsupervised corrected twin.
// (Shown the raw estimate instead, the ladder falls back on a stream the
// resampler holds aligned, some 20 dB worse than the twin.)
func TestCorrectedSupervisedDriftCellHoldsLANC(t *testing.T) {
	if testing.Short() {
		t.Skip("12 s drift cells")
	}
	c := Config{Duration: 12, Seed: 11}.Defaults()
	run := func(p driftPolicy) (float64, *supervisor.Report) {
		cell := driftCell{cfg: c, policy: p, ppm: 200, linkSeed: c.Seed*2027 + 4*31, noiseSeed: c.Seed + 4*7}
		db, _, sup, err := cell.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return db, sup
	}
	twin, _ := run(driftCorrected)
	db, sup := run(driftCorrected | driftSupervised)
	if sup == nil {
		t.Fatal("supervised cell has no supervisor report")
	}
	if n := len(sup.Transitions); n != 0 {
		t.Errorf("ladder moved %d times on a corrected stream: %+v", n, sup.Transitions)
	}
	t.Logf("corrected %.2f dB, corrected+supervised %.2f dB", twin, db)
	if d := db - twin; d > 0.5 || d < -0.5 {
		t.Errorf("corrected+supervised %.2f dB vs corrected %.2f dB: off by %.2f dB", db, twin, d)
	}
}
