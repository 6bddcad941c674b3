package sim

import (
	"math"
	"testing"

	"mute/internal/mesh"
)

// TestRunMeshWalkingPolicies is the pipeline-level mesh check: one seeded
// walking-source run per policy with churn and flappers on. The hysteretic
// mesh must land a usefully deep floor, and the naive per-round argmax
// must both switch far more and cancel less — the ordering the mesh
// experiment measures at full scale.
func TestRunMeshWalkingPolicies(t *testing.T) {
	base := MeshScenario{Duration: 6, Relays: 40, Seed: 29, Walking: true, ChurnPerMin: 0.10}

	hyst := base
	h, err := RunMesh(hyst)
	if err != nil {
		t.Fatal(err)
	}
	naive := base
	naive.Naive = true
	n, err := RunMesh(naive)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hysteretic: %.2f dB, %d handoffs; naive: %.2f dB, %d handoffs",
		h.ResidualDB, h.Report.Handoffs, n.ResidualDB, n.Report.Handoffs)

	if h.ResidualDB > -6 {
		t.Errorf("hysteretic mesh floor %.2f dB, want < -6 dB", h.ResidualDB)
	}
	if h.ResidualDB > n.ResidualDB-2 {
		t.Errorf("hysteretic %.2f dB not usefully below naive %.2f dB", h.ResidualDB, n.ResidualDB)
	}
	if n.Report.Handoffs < 2*h.Report.Handoffs {
		t.Errorf("naive switched %d times vs hysteretic %d — flapping not reproduced",
			n.Report.Handoffs, h.Report.Handoffs)
	}
	if h.Report.Rounds == 0 || h.Report.Correlations == 0 {
		t.Errorf("no selection work recorded: %+v", h.Report)
	}
	if h.Report.MembershipChanges() == 0 {
		t.Errorf("churn scheduled but no membership changes recorded: %+v", h.Report)
	}
}

// TestRunMeshStaticSourceIsQuiet pins the easy case: a static source and a
// static mesh should associate once and stay put.
func TestRunMeshStaticSourceIsQuiet(t *testing.T) {
	r, err := RunMesh(MeshScenario{Duration: 4, Relays: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("static: %.2f dB, %d handoffs", r.ResidualDB, r.Report.Handoffs)
	if r.ResidualDB > -10 {
		t.Errorf("static-source mesh floor %.2f dB, want < -10 dB", r.ResidualDB)
	}
	if r.Report.Handoffs > 4 {
		t.Errorf("static source caused %d handoffs, want at most the initial adoption plus jitter slack", r.Report.Handoffs)
	}
	if r.Report.OrphanedWindows != 0 {
		t.Errorf("static mesh orphaned %d times", r.Report.OrphanedWindows)
	}
}

// TestRunMeshValidation covers the scenario error paths.
func TestRunMeshValidation(t *testing.T) {
	if _, err := RunMesh(MeshScenario{Relays: 10}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := RunMesh(MeshScenario{Duration: 1}); err == nil {
		t.Error("zero relays accepted")
	}
	if _, err := RunMesh(MeshScenario{Duration: 1, Relays: 10, BgLoss: -1}); err == nil {
		t.Error("negative loss accepted")
	}
}

// TestRunMeshBitsPinned pins one walking, churning mesh cell per policy to
// the exact residual bits and supervisor report it produced before the
// mesh members shared supervisor.LinkHealth with the outage ladder. The
// churn rate is high enough that the cell sees expirations, a rejoin (the
// EWMA must survive it while both runs restart) and a suppressed flap.
func TestRunMeshBitsPinned(t *testing.T) {
	base := MeshScenario{Duration: 6, Relays: 40, Seed: 29, Walking: true, ChurnPerMin: 2}
	for _, tc := range []struct {
		naive bool
		bits  uint64
		rep   mesh.Report
	}{
		{false, 0xc01da250d4d8c559, mesh.Report{
			Joins: 40, Rejoins: 1, Expirations: 7, Live: 34,
			Rounds: 92, Correlations: 984, DistressRounds: 5,
			Handoffs: 4, EmergencyHandoffs: 1, FlapsSuppressed: 1,
			OrphanedSamples: 1023,
		}},
		{true, 0xc0047be5d81e7458, mesh.Report{
			Joins: 40, Rejoins: 1, Expirations: 7, Live: 34,
			Rounds: 92, Correlations: 908, DistressRounds: 1,
			Handoffs: 25, OrphanedSamples: 1023,
		}},
	} {
		sc := base
		sc.Naive = tc.naive
		r, err := RunMesh(sc)
		if err != nil {
			t.Fatal(err)
		}
		if b := math.Float64bits(r.ResidualDB); b != tc.bits {
			t.Errorf("naive=%v: residual %v dB (bits %#x), want bits %#x", tc.naive, r.ResidualDB, b, tc.bits)
		}
		if r.Report != tc.rep {
			t.Errorf("naive=%v: report\n%+v\nwant\n%+v", tc.naive, r.Report, tc.rep)
		}
	}
}
