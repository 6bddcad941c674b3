package mesh

import (
	"testing"

	"mute/internal/acoustics"
	"mute/internal/audio"
)

// The Section 4.2 tracking behaviours on all-real streams: every relay's
// link is perfect, so only the GCC-PHAT measurements drive association.

const trackLag = 25 // samples a leading relay leads, and a lagging one lags, the ear

// trackingMesh builds a supervisor over relays slots (all joined).
func trackingMesh(t *testing.T, relays int) *Supervisor {
	t.Helper()
	cfg := testConfig(relays)
	sup, err := NewSupervisor(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < relays; r++ {
		if _, err := sup.Join(int64(r), acoustics.Point{X: 7 + float64(r), Y: 8}); err != nil {
			t.Fatal(err)
		}
	}
	return sup
}

// tracker feeds a trackingMesh from one continuous noise source. The ear
// hears base[i+2·lag]; the leader forwards base[i+3·lag] (leading the ear
// by lag) and every other relay base[i+lag] (lagging it by lag).
type tracker struct {
	t    *testing.T
	sup  *Supervisor
	base []float64
	i    int
	fwd  []float64
	real []bool
}

func newTracker(t *testing.T, relays, samples int) *tracker {
	tr := &tracker{
		t:    t,
		sup:  trackingMesh(t, relays),
		base: audio.Render(audio.NewWhiteNoise(7, 8000, 0.7), samples+3*trackLag),
		fwd:  make([]float64, relays),
		real: make([]bool, relays),
	}
	for r := range tr.real {
		tr.real[r] = true
	}
	return tr
}

// feed pushes n samples with relay leader leading (-1: every relay lags).
func (tr *tracker) feed(leader, n int) {
	tr.t.Helper()
	for k := 0; k < n; k++ {
		for r := range tr.fwd {
			if r == leader {
				tr.fwd[r] = tr.base[tr.i+3*trackLag]
			} else {
				tr.fwd[r] = tr.base[tr.i+trackLag]
			}
		}
		if _, _, err := tr.sup.Push(tr.base[tr.i+2*trackLag], tr.fwd, tr.real); err != nil {
			tr.t.Fatal(err)
		}
		tr.i++
	}
}

// TestMeshAssociatesWithEarliestOfThree: of three relays, the one that
// leads the ear wins; the two that lag it are never adopted.
func TestMeshAssociatesWithEarliestOfThree(t *testing.T) {
	tr := newTracker(t, 3, 4096)
	tr.feed(2, 4096)
	if got := tr.sup.Current(); got != 2 {
		t.Fatalf("associated with %d, want the leading relay 2; report %+v", got, tr.sup.Report())
	}
	if rep := tr.sup.Report(); rep.Rounds == 0 || rep.Handoffs != 1 {
		t.Fatalf("want rounds run and exactly the one adoption: %+v", rep)
	}
}

// TestMeshFollowsMovedSource: the source moves so the other relay leads;
// the association follows it.
func TestMeshFollowsMovedSource(t *testing.T) {
	tr := newTracker(t, 2, 4096+6144)
	tr.feed(0, 4096)
	if got := tr.sup.Current(); got != 0 {
		t.Fatalf("before the move: associated with %d, want 0", got)
	}
	tr.feed(1, 6144)
	if got := tr.sup.Current(); got != 1 {
		t.Fatalf("after the move: associated with %d, want 1; report %+v", got, tr.sup.Report())
	}
	if rep := tr.sup.Report(); rep.Handoffs != 2 {
		t.Fatalf("handoffs = %d, want 2 (adoption + follow)", rep.Handoffs)
	}
}

// TestMeshNoAssociationWhenAllLag: when every relay hears the source after
// the ear, none offers lookahead and the mesh stays orphaned.
func TestMeshNoAssociationWhenAllLag(t *testing.T) {
	tr := newTracker(t, 2, 4096)
	tr.feed(-1, 4096)
	rep := tr.sup.Report()
	if tr.sup.Current() != -1 || rep.Handoffs != 0 {
		t.Fatalf("all-lagging relays were adopted: current %d, report %+v", tr.sup.Current(), rep)
	}
	if rep.Rounds == 0 || rep.OrphanedSamples != 4096 {
		t.Fatalf("want rounds run and every sample orphaned: %+v", rep)
	}
}

// TestMeshOneRoundGlitchDoesNotSwitch: the other relay leads for one
// whole correlation window, starting on a round. Rounds run every half
// window, so three rounds see the glitch (half, all, half of their
// window), but they span only one window of bad lag: the association
// must not move — neither by the dwell nor by the rescue, which needs
// two disjoint windows of bad lag.
func TestMeshOneRoundGlitchDoesNotSwitch(t *testing.T) {
	tr := newTracker(t, 2, 6144)
	window := tr.sup.cfg.WindowSamples
	tr.feed(0, 3072) // rounds fall on multiples of window/2
	if got := tr.sup.Current(); got != 0 {
		t.Fatalf("setup: associated with %d, want 0", got)
	}
	tr.feed(1, window)
	if len(tr.sup.ranked) == 0 || tr.sup.ranked[0].slot != 1 {
		t.Fatalf("the glitch round did not favour relay 1: %+v", tr.sup.ranked)
	}
	tr.feed(0, 3072-window)
	if got := tr.sup.Current(); got != 0 {
		t.Fatalf("a one-window glitch moved the association to %d", got)
	}
	if rep := tr.sup.Report(); rep.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want only the initial adoption", rep.Handoffs)
	}
}

// TestMeshConfigValidation: a mesh needs capacity, and the correlation
// search must fit in half the window; a fresh supervisor is orphaned.
func TestMeshConfigValidation(t *testing.T) {
	if _, err := NewSupervisor(Config{}, nil, nil); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := NewSupervisor(Config{Capacity: 1, WindowSamples: 100, MaxLagSamples: 60}, nil, nil); err == nil {
		t.Error("max lag >= window/2 should error")
	}
	sup, err := NewSupervisor(Config{Capacity: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Current() != -1 {
		t.Error("a fresh supervisor should have no association")
	}
}

// TestMeshPushValidatesArity: Push needs one forwarded sample and flag per
// slot of capacity.
func TestMeshPushValidatesArity(t *testing.T) {
	sup := trackingMesh(t, 2)
	if _, _, err := sup.Push(0, []float64{1}, []bool{true, true}); err == nil {
		t.Error("short forwarded slice should error")
	}
	if _, _, err := sup.Push(0, []float64{1, 1}, []bool{true}); err == nil {
		t.Error("short real slice should error")
	}
}

// TestMeshRingEquivalence pins the doubled-ring histories to a shifting
// reference: after every sample, the local window and each live member's
// window handed to selection hold exactly the last WindowSamples pushed,
// oldest first, across many wraps.
func TestMeshRingEquivalence(t *testing.T) {
	const relays = 3
	sup := trackingMesh(t, relays)
	window := sup.cfg.WindowSamples
	base := audio.Render(audio.NewWhiteNoise(11, 8000, 0.7), 5*window+relays*window)
	refLocal := make([]float64, window)
	refFwd := make([][]float64, relays)
	for r := range refFwd {
		refFwd[r] = make([]float64, window)
	}
	fwd := make([]float64, relays)
	real := []bool{true, true, true}
	for i := 0; i < 5*window; i++ {
		copy(refLocal, refLocal[1:])
		refLocal[window-1] = base[i]
		for r := range fwd {
			fwd[r] = base[i+(r+1)*window]
			copy(refFwd[r], refFwd[r][1:])
			refFwd[r][window-1] = fwd[r]
		}
		if _, _, err := sup.Push(base[i], fwd, real); err != nil {
			t.Fatal(err)
		}
		local := sup.localRing[sup.cursor : sup.cursor+window]
		for j := 0; j < window; j++ {
			if local[j] != refLocal[j] {
				t.Fatalf("sample %d: local window[%d] = %g, shift reference %g", i, j, local[j], refLocal[j])
			}
			for r := 0; r < relays; r++ {
				if got := sup.mem.window(int32(r), sup.cursor)[j]; got != refFwd[r][j] {
					t.Fatalf("sample %d: relay %d window[%d] = %g, shift reference %g", i, r, j, got, refFwd[r][j])
				}
			}
		}
	}
}

// TestMeshTrackingPushAllocFree pins the steady-state per-sample Push of a
// small all-real tracking mesh — ring writes plus the periodic selection
// round — at zero allocations, measured one sample at a time.
func TestMeshTrackingPushAllocFree(t *testing.T) {
	const relays = 4
	sup := trackingMesh(t, relays)
	interval := sup.cfg.WindowSamples / 2
	base := audio.Render(audio.NewWhiteNoise(13, 8000, 0.7), 8*sup.cfg.WindowSamples)
	fwd := make([]float64, relays)
	real := []bool{true, true, true, true}
	i := 0
	push := func() {
		for r := range fwd {
			fwd[r] = base[(i+97*r)%len(base)]
		}
		if _, _, err := sup.Push(base[i%len(base)], fwd, real); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Warm up past the first selection rounds so every scratch is grown.
	for i < 2*sup.cfg.WindowSamples {
		push()
	}
	rounds := sup.Report().Rounds
	if allocs := testing.AllocsPerRun(2*interval, push); allocs != 0 {
		t.Errorf("Push allocated %.2f times per sample, want 0", allocs)
	}
	if sup.Report().Rounds == rounds {
		t.Fatal("no selection rounds ran during the measured samples")
	}
}

// TestMeshStalePendingCleared is the regression test for the pending-state
// reset: once a round's winner returns to the current association, the
// candidacy is wiped entirely (pendSlot = -1, pendRun = 0), so a later
// glitch toward the old challenger starts a fresh candidacy and must
// survive the full dwell before a switch.
func TestMeshStalePendingCleared(t *testing.T) {
	cfg := testConfig(3)
	sup, err := NewSupervisor(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if _, err := sup.Join(int64(200+r), acoustics.Point{X: 7 + 2*float64(r), Y: 8}); err != nil {
			t.Fatal(err)
		}
		observeRun(&sup.mem.members[r].health, true, 10*warmupSamples)
	}
	sup.current = 0
	sup.currentLag = 20
	round := func(best int32, lag1 int) {
		sup.ranked = sup.ranked[:0]
		a := rankedCandidate{slot: 0, lag: 20, peak: 0.9}
		b := rankedCandidate{slot: 1, lag: lag1, peak: 0.9}
		if best == 1 {
			sup.ranked = append(sup.ranked, b, a)
		} else {
			sup.ranked = append(sup.ranked, a, b)
		}
		sup.decide(best)
	}

	round(1, 32) // challenger appears
	if sup.pendSlot != 1 || sup.pendRun != 1 {
		t.Fatalf("pending = (%d, %d), want (1, 1)", sup.pendSlot, sup.pendRun)
	}
	round(0, 10) // winner returns to current
	if sup.pendSlot != -1 || sup.pendRun != 0 {
		t.Fatalf("after return to current: pending = (%d, %d), want (-1, 0)", sup.pendSlot, sup.pendRun)
	}
	round(1, 32) // single-round glitch toward the old challenger
	if sup.current != 0 {
		t.Fatalf("single glitch switched the association to %d", sup.current)
	}
	if sup.pendRun != 1 {
		t.Fatalf("glitch candidacy run = %d, want a fresh 1", sup.pendRun)
	}
	for r := 1; r < dwellRounds; r++ {
		round(1, 32) // full dwell satisfied by the last of these
	}
	if sup.current != 1 {
		t.Fatalf("sustained winner should switch, current = %d", sup.current)
	}
}
