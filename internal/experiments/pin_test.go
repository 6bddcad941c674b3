package experiments

import (
	"math"
	"reflect"
	"testing"

	"mute/internal/stream"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
)

// The synthetic-deployment cells are pinned to the exact float64 bits
// they produced when each cell still stepped its own hand-wired LANC loop.
// Routing them through graph.Build must not move a single bit: the graph
// runs the same arithmetic in the same order, so any drift here is a
// wiring change, not noise.

// pinConfig is the short, fixed configuration every pin below runs at.
func pinConfig() Config { return Config{Duration: 2, Seed: 7}.Defaults() }

func checkBits(t *testing.T, name string, got float64, want uint64) {
	t.Helper()
	if b := math.Float64bits(got); b != want {
		t.Errorf("%s = %v (bits %#x), want %v (bits %#x)", name, got, b, math.Float64frombits(want), want)
	}
}

func TestLossCellBitsPinned(t *testing.T) {
	c := pinConfig()
	// 10% Gilbert–Elliott burst loss, the headline cell of LossSweep.
	link := stream.LossParams{Seed: c.Seed*1009 + 3*17 + 5, Loss: 0.10, MeanBurst: 4}
	for _, tc := range []struct {
		name        string
		fec, freeze bool
		want        uint64
	}{
		{"naive_burst", false, false, 0xc029e68562ffdedf},
		{"freeze+fec_burst", true, true, 0xc033ba844809f951},
	} {
		db, err := lossRun(c, link, tc.fec, tc.freeze, c.Seed+3*23, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, tc.name, db, tc.want)
	}
}

func TestOutageCellBitsPinned(t *testing.T) {
	c := pinConfig()
	for _, tc := range []struct {
		name   string
		policy outagePolicy
		want   uint64
		moves  int
		trans  int // supervisor transitions (-1 = unsupervised)
	}{
		{"naive", outageNaive, 0xc010fc533733c356, 0, -1},
		{"freeze", outageFreeze, 0xc011a57e9f7a915a, 0, -1},
		// The FALLBACK rung's headphone canceller moved the last bits
		// (was 0xc012f719fe3fbb0e) when it became a zero-lookahead LANC,
		// whose NLMS window powers are rescanned exactly every 64 samples
		// where the old FxLMS slid them forever (EXPERIMENTS.md).
		{"supervised", outageSupervised, 0xc016e22379a5de28, 0, 3},
		// The two relays became members of one mesh.Supervisor, the one
		// relay selector, when supervisor.Failover was deleted (was
		// 0xc03327b765973cf1, -19.155 dB): the mesh leaves a failing
		// relay and stays on the one it moved to, where the Failover
		// returned to relay 0, so the re-adaptation transients fall
		// elsewhere. The two moves are now the first association and one
		// emergency handoff (EXPERIMENTS.md).
		{"failover_2relay", outageFailover, 0xc031ca87fbb750ca, 2, -1},
	} {
		cell := outageCell{
			cfg: c, policy: tc.policy, frac: 1.0 / 6, bgLoss: 0.02,
			linkSeed: c.Seed*2027 + 3*31, noiseSeed: c.Seed + 3*7,
		}
		db, rep, moves, err := cell.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, tc.name, db, tc.want)
		if moves != tc.moves {
			t.Errorf("%s: %d relay switches, want %d", tc.name, moves, tc.moves)
		}
		trans := -1
		if rep != nil {
			trans = len(rep.Transitions)
		}
		if trans != tc.trans {
			t.Errorf("%s: %d supervisor transitions, want %d", tc.name, trans, tc.trans)
		}
	}
}

func TestDriftCellBitsPinned(t *testing.T) {
	c := pinConfig()
	for _, tc := range []struct {
		name   string
		policy driftPolicy
		want   uint64
		trans  int
	}{
		{"naive", driftNaive, 0xc03f2eab8326e0c6, -1},
		{"corrected", driftCorrected, 0xc0406cfdd0cae848, -1},
		{"supervised", driftSupervised, 0xc03cf00580c963ad, 1},
	} {
		cell := driftCell{
			cfg: c, policy: tc.policy, ppm: 100,
			linkSeed: c.Seed*2027 + 3*31, noiseSeed: c.Seed + 3*7,
		}
		db, rep, sup, err := cell.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, tc.name, db, tc.want)
		// The corrected cell must have exercised a replayed adaptation
		// hold, or the pin would not cover the DriftReplay binding.
		if rep == nil || len(rep.RateJumps) != 1 {
			t.Errorf("%s: drift report %+v, want one suspected rate jump", tc.name, rep)
		}
		trans := -1
		if sup != nil {
			trans = len(sup.Transitions)
		}
		if trans != tc.trans {
			t.Errorf("%s: %d supervisor transitions, want %d", tc.name, trans, tc.trans)
		}
	}
}

// TestSupervisedCellsPublishFullReport checks that the supervised outage
// and drift cells publish every supervisor series OBSERVABILITY.md lists,
// with the values of the run's own report.
func TestSupervisedCellsPublishFullReport(t *testing.T) {
	c := pinConfig()
	runs := map[string]func(*telemetry.Registry) (*supervisor.Report, error){
		"outage": func(reg *telemetry.Registry) (*supervisor.Report, error) {
			cell := outageCell{cfg: c, policy: outageSupervised, frac: 1.0 / 6, bgLoss: 0.02,
				linkSeed: c.Seed*2027 + 3*31, noiseSeed: c.Seed + 3*7}
			_, rep, _, err := cell.run(reg)
			return rep, err
		},
		"drift": func(reg *telemetry.Registry) (*supervisor.Report, error) {
			cell := driftCell{cfg: c, policy: driftSupervised, ppm: 100,
				linkSeed: c.Seed*2027 + 3*31, noiseSeed: c.Seed + 3*7}
			_, _, rep, err := cell.run(reg)
			return rep, err
		},
	}
	for name, run := range runs {
		reg := telemetry.NewRegistry()
		rep, err := run(reg)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{
			"supervisor.transitions":        int64(len(rep.Transitions)),
			"supervisor.probes":             int64(rep.Probes),
			"supervisor.failed_probes":      int64(rep.FailedProbes),
			"supervisor.warm_starts":        int64(rep.WarmStarts),
			"supervisor.tainted_suppressed": rep.TaintedSuppressed,
		}
		for st, samples := range rep.TimeInState {
			want["supervisor.time_in_"+supervisor.State(st).String()] = samples
		}
		got := reg.Snapshot().Counters
		for series, v := range want {
			if g, ok := got[series]; !ok || g != v {
				t.Errorf("%s cell: counter %s = %d (present %v), want %d", name, series, g, ok, v)
			}
		}
	}
}

// TestTrackerExperimentPinned pins the Section 4.2 tracking figure — the
// association at the end of each segment and the switch-count note — to
// what the standalone relay tracker produced before the experiment ran on
// mesh.Supervisor.
func TestTrackerExperimentPinned(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		fig, err := TrackerExperiment(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s := fig.Series[0]
		if !reflect.DeepEqual(s.X, []float64{0, 1, 2, 3}) || !reflect.DeepEqual(s.Y, []float64{1, 2, 1, 2}) {
			t.Errorf("seed %d: series X=%v Y=%v, want X=[0 1 2 3] Y=[1 2 1 2]", seed, s.X, s.Y)
		}
		want := []string{"tracker matched the active source's nearest relay in 4/4 segments with 4 association switches"}
		if !reflect.DeepEqual(fig.Notes, want) {
			t.Errorf("seed %d: notes %q, want %q", seed, fig.Notes, want)
		}
	}
}
