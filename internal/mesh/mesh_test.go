package mesh

import (
	"fmt"
	"testing"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/supervisor"
)

// testConfig is a small, fast mesh config shared by the tests: a
// 256-sample window, so a selection round every 128 samples.
func testConfig(capacity int) Config {
	return Config{
		Capacity:            capacity,
		EarPos:              acoustics.Point{X: 8, Y: 8},
		WindowSamples:       256,
		MaxLagSamples:       32,
		MinPeak:             0.05,
		CellSize:            1,
		MaxX:                16,
		MaxY:                16,
		HealthAlpha:         1.0 / 64,
		SwitchMarginSamples: 8,
	}
}

// meshHarness drives a Supervisor against synthetic relay streams: one
// clean noise signal, with relay slot s forwarding clean[t+leads[s]] (its
// acoustic lookahead) unless its link is down. It mirrors each slot's
// real-flag history so tests can assert what a switch landed on.
type meshHarness struct {
	t     *testing.T
	sup   *Supervisor
	clean []float64
	leads []int
	down  []bool
	fwd   []float64
	real  []bool
	now   int64

	hist     [][]bool // per-slot real flags, full run
	actives  []int
	switches []int // step indices where the association changed
}

func newMeshHarness(t *testing.T, cfg Config, total int) *meshHarness {
	t.Helper()
	sup, err := NewSupervisor(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := audio.NewWhiteNoise(23, 8000, 0.4)
	clean := make([]float64, total+cfg.MaxLagSamples+64)
	for i := range clean {
		clean[i] = gen.Next()
	}
	return &meshHarness{
		t:     t,
		sup:   sup,
		clean: clean,
		leads: make([]int, cfg.Capacity),
		down:  make([]bool, cfg.Capacity),
		fwd:   make([]float64, cfg.Capacity),
		real:  make([]bool, cfg.Capacity),
		hist:  make([][]bool, cfg.Capacity),
	}
}

func (h *meshHarness) join(slot int, lead int, pos acoustics.Point) {
	h.t.Helper()
	got, err := h.sup.Join(int64(slot)+100, pos)
	if err != nil {
		h.t.Fatal(err)
	}
	if got != slot {
		h.t.Fatalf("relay joined at slot %d, expected %d", got, slot)
	}
	h.leads[slot] = lead
}

// step pushes n sample periods, recording history and switches.
func (h *meshHarness) step(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		for s := range h.fwd {
			h.fwd[s] = 0
			h.real[s] = false
		}
		for _, slot := range h.sup.mem.liveIDs {
			if h.down[slot] {
				h.fwd[slot], h.real[slot] = 0, false
			} else {
				h.fwd[slot], h.real[slot] = h.clean[h.now+int64(h.leads[slot])], true
			}
		}
		for s := range h.hist {
			h.hist[s] = append(h.hist[s], h.real[s])
		}
		prev := h.sup.Current()
		_, ok, err := h.sup.Push(h.clean[h.now], h.fwd, h.real)
		if err != nil {
			h.t.Fatal(err)
		}
		cur := h.sup.Current()
		if cur != prev {
			h.switches = append(h.switches, len(h.actives))
		}
		h.actives = append(h.actives, cur)
		// The mask must never claim a concealed stream is real.
		if ok && cur >= 0 && !h.real[cur] {
			h.t.Fatalf("step %d: mask real while the active relay's sample was concealed", len(h.actives)-1)
		}
		if cur >= 0 && h.sup.mem.members[cur].state != live {
			h.t.Fatalf("step %d: supervisor selected non-live slot %d", len(h.actives)-1, cur)
		}
		h.now++
	}
}

// assertSwitchesWarm pins the make-before-break invariant on every
// association change that landed on a relay (orphanings excluded): the
// incoming relay's last warmup samples were all genuinely received.
func (h *meshHarness) assertSwitchesWarm(warmup int) {
	h.t.Helper()
	if msg := h.coldSwitch(warmup); msg != "" {
		h.t.Fatal(msg)
	}
}

// coldSwitch describes the first switch onto a relay whose last warmup
// samples were not all genuinely received, or returns "" when every
// switch was warm. The window ends at the sample consumed in the
// switching step, so a switch at step at has at+1 samples of history
// behind it.
func (h *meshHarness) coldSwitch(warmup int) string {
	for _, at := range h.switches {
		slot := h.actives[at]
		if slot < 0 {
			continue
		}
		if at+1 < warmup {
			return fmt.Sprintf("switch to slot %d at step %d, before %d samples of history exist", slot, at, warmup)
		}
		for j := at - warmup + 1; j <= at; j++ {
			if !h.hist[slot][j] {
				return fmt.Sprintf("switch to slot %d at step %d: its sample %d (within the %d-sample warm-up window) was concealed",
					slot, at, j, warmup)
			}
		}
	}
	return ""
}

// TestColdSwitchBoundary pins the harness's own warm-up arithmetic at its
// edges: a switch at step warmup−1 onto a relay clean since step 0 has
// exactly warmup samples and is warm; one step earlier it is not, and one
// concealed sample inside the window makes it cold until the next step.
func TestColdSwitchBoundary(t *testing.T) {
	const warmup = 8
	clean := make([]bool, 2*warmup)
	h := &meshHarness{
		t:       t,
		hist:    [][]bool{make([]bool, 2*warmup), clean},
		actives: make([]int, 2*warmup),
	}
	for i := range h.actives {
		h.actives[i] = 1
	}
	for _, c := range []struct {
		at, concealed int
		warm          bool
	}{
		{warmup - 1, -1, true},
		{warmup - 2, -1, false},
		{warmup - 1, 0, false},
		{warmup, 0, true},
		{warmup, 1, false},
	} {
		for i := range clean {
			clean[i] = i != c.concealed
		}
		h.switches = []int{c.at}
		if msg := h.coldSwitch(warmup); (msg == "") != c.warm {
			t.Errorf("switch at step %d, sample %d concealed: warm = %v, want %v (%s)", c.at, c.concealed, msg == "", c.warm, msg)
		}
	}
	// An orphaning is not a switch onto a stream.
	h.actives[warmup-2] = -1
	h.switches = []int{warmup - 2}
	if msg := h.coldSwitch(warmup); msg != "" {
		t.Errorf("orphaning judged as a cold switch: %s", msg)
	}
}

// TestMeshAdoptsBestRelay: with three healthy relays the supervisor
// associates with the one offering the most lookahead.
func TestMeshAdoptsBestRelay(t *testing.T) {
	cfg := testConfig(8)
	h := newMeshHarness(t, cfg, 3000)
	h.join(0, 4, acoustics.Point{X: 7, Y: 8})
	h.join(1, 24, acoustics.Point{X: 9, Y: 8})
	h.join(2, 12, acoustics.Point{X: 8, Y: 9})
	h.step(3000)
	if got := h.sup.Current(); got != 1 {
		t.Fatalf("associated with slot %d, want 1 (most lookahead); report %+v", got, h.sup.Report())
	}
	rep := h.sup.Report()
	if rep.Rounds == 0 || rep.Handoffs == 0 {
		t.Fatalf("no rounds or handoffs ran: %+v", rep)
	}
	steady := rep.Rounds - rep.DistressRounds
	budget := steady*(candidateK+probeCount(candidateK)+1) + rep.DistressRounds*(cfg.Capacity+1)
	if rep.Correlations > budget {
		t.Fatalf("correlation budget exceeded: %d correlations over %d rounds (%d distress)",
			rep.Correlations, rep.Rounds, rep.DistressRounds)
	}
	if steady <= 0 {
		t.Fatalf("every round ran in distress mode: %+v", rep)
	}
	h.assertSwitchesWarm(warmupSamples)
}

// TestMeshEmergencyHandoff: the active relay goes dark mid-run; the
// supervisor must hand off to a warm alternative within the emergency
// budget, never selecting a dead relay and never switching cold.
func TestMeshEmergencyHandoff(t *testing.T) {
	cfg := testConfig(8)
	h := newMeshHarness(t, cfg, 8000)
	h.join(0, 24, acoustics.Point{X: 8, Y: 8.5})
	h.join(1, 12, acoustics.Point{X: 8.5, Y: 8})
	h.join(2, 6, acoustics.Point{X: 7.5, Y: 8})
	h.step(2000)
	if h.sup.Current() != 0 {
		t.Fatalf("associated with %d, want 0", h.sup.Current())
	}
	h.down[0] = true
	h.step(emergencyRunSamples + 2)
	if got := h.sup.Current(); got != 1 {
		t.Fatalf("after the active relay died the supervisor holds slot %d, want emergency handoff to 1; report %+v",
			got, h.sup.Report())
	}
	rep := h.sup.Report()
	if rep.EmergencyHandoffs != 1 {
		t.Fatalf("emergency handoffs = %d, want 1; report %+v", rep.EmergencyHandoffs, rep)
	}
	// The dead relay ages out of membership entirely.
	h.step(heartbeatTimeoutSamples + 2)
	if rep := h.sup.Report(); rep.Expirations != 1 {
		t.Fatalf("expirations = %d after heartbeat timeout, want 1", rep.Expirations)
	}
	h.assertSwitchesWarm(warmupSamples)
}

// TestMeshChurnRejoin: a crashed relay ages out, rejoins cold, re-warms,
// and wins the association back.
func TestMeshChurnRejoin(t *testing.T) {
	cfg := testConfig(8)
	h := newMeshHarness(t, cfg, 16000)
	h.join(0, 24, acoustics.Point{X: 8, Y: 8.5})
	h.join(1, 12, acoustics.Point{X: 8.5, Y: 8})
	h.step(2000)
	if h.sup.Current() != 0 {
		t.Fatalf("associated with %d, want 0", h.sup.Current())
	}
	h.down[0] = true
	h.step(heartbeatTimeoutSamples + 50)
	if h.sup.Current() != 1 {
		t.Fatalf("after slot 0 died, associated with %d, want 1", h.sup.Current())
	}
	if h.sup.mem.members[0].state != dead {
		t.Fatalf("slot 0 state = %d, want dead", h.sup.mem.members[0].state)
	}
	// Recovery: link back up, relay re-registers.
	h.down[0] = false
	if _, err := h.sup.Join(100, acoustics.Point{X: 8, Y: 8.5}); err != nil {
		t.Fatal(err)
	}
	h.step(6000)
	if h.sup.Current() != 0 {
		t.Fatalf("after rejoin+rewarm, associated with %d, want 0 back; report %+v", h.sup.Current(), h.sup.Report())
	}
	rep := h.sup.Report()
	if rep.Rejoins != 1 || rep.Expirations != 1 {
		t.Fatalf("rejoins/expirations = %d/%d, want 1/1", rep.Rejoins, rep.Expirations)
	}
	h.assertSwitchesWarm(warmupSamples)
}

// TestMeshExpiryOrphansWhenAlone: the only relay expiring orphans the
// mesh; output is flagged concealed while orphaned.
func TestMeshExpiryOrphansWhenAlone(t *testing.T) {
	cfg := testConfig(4)
	h := newMeshHarness(t, cfg, 4000)
	h.join(0, 16, acoustics.Point{X: 8, Y: 8.5})
	h.step(1500)
	if h.sup.Current() != 0 {
		t.Fatalf("associated with %d, want 0", h.sup.Current())
	}
	h.down[0] = true
	h.step(heartbeatTimeoutSamples + 100)
	if h.sup.Current() != -1 {
		t.Fatalf("current = %d after the only relay expired, want -1 (orphaned)", h.sup.Current())
	}
	rep := h.sup.Report()
	if rep.Expirations != 1 || rep.OrphanedWindows != 1 || rep.OrphanedSamples < 100 {
		t.Fatalf("expirations/orphanedWindows/orphanedSamples = %d/%d/%d, want 1/1/≥100",
			rep.Expirations, rep.OrphanedWindows, rep.OrphanedSamples)
	}
}

// observeRun folds n identical concealment flags into a member's health.
func observeRun(h *supervisor.LinkHealth, real bool, n int) {
	for i := 0; i < n; i++ {
		h.Observe(real)
	}
}

// TestMeshDecideHysteresis unit-tests the handoff state machine directly:
// a flapping challenger is suppressed, a sustained one switches, and a
// cold one waits for warm-up even after the dwell is satisfied.
func TestMeshDecideHysteresis(t *testing.T) {
	cfg := testConfig(4)
	sup, err := NewSupervisor(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Join(100, acoustics.Point{X: 7, Y: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Join(101, acoustics.Point{X: 9, Y: 8}); err != nil {
		t.Fatal(err)
	}
	observeRun(&sup.mem.members[0].health, true, 10*warmupSamples)
	observeRun(&sup.mem.members[1].health, true, 10*warmupSamples)
	sup.current = 0
	sup.currentLag = 20

	rank := func(lag0, lag1 int) {
		sup.ranked = sup.ranked[:0]
		a := rankedCandidate{slot: 0, lag: lag0, peak: 0.9}
		b := rankedCandidate{slot: 1, lag: lag1, peak: 0.9}
		if lag1 >= lag0 {
			sup.ranked = append(sup.ranked, b, a)
		} else {
			sup.ranked = append(sup.ranked, a, b)
		}
	}

	// One-round glitch toward slot 1, then back: suppressed, not switched.
	rank(20, 32)
	sup.decide(1)
	rank(20, 10)
	sup.decide(0)
	if sup.current != 0 {
		t.Fatalf("switched on a one-round glitch (dwell %d)", dwellRounds)
	}
	if sup.rep.FlapsSuppressed != 1 {
		t.Fatalf("flapsSuppressed = %d after an abandoned candidacy, want 1", sup.rep.FlapsSuppressed)
	}
	// Margin not met: slot 1 better but within the switch margin.
	rank(20, 24)
	sup.decide(1)
	if sup.pendRun != 0 {
		t.Fatalf("challenger within the margin started a candidacy (pendRun %d)", sup.pendRun)
	}
	// Sustained challenger, but cold: dwell satisfied, switch held.
	observeRun(&sup.mem.members[1].health, false, 1)
	for i := 0; i < dwellRounds+2; i++ {
		rank(20, 32)
		sup.decide(1)
	}
	if sup.current != 0 {
		t.Fatal("switched to a cold relay (warm-up gate bypassed)")
	}
	// The stream warms: the held switch completes with a crossfade.
	observeRun(&sup.mem.members[1].health, true, warmupSamples)
	rank(20, 32)
	sup.decide(1)
	if sup.current != 1 {
		t.Fatalf("sustained warm challenger not adopted (current %d, pendRun %d)", sup.current, sup.pendRun)
	}
	if !sup.fading || sup.fadeFrom != 0 {
		t.Fatalf("handoff did not start a crossfade (fading %v from %d)", sup.fading, sup.fadeFrom)
	}
	if sup.rep.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", sup.rep.Handoffs)
	}
}

// TestMeshNaiveSwitchesEveryRound: the naive baseline hard-switches to
// each round's argmax with no dwell or warm-up.
func TestMeshNaiveSwitchesEveryRound(t *testing.T) {
	cfg := testConfig(4)
	cfg.Naive = true
	sup, err := NewSupervisor(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Join(100, acoustics.Point{X: 7, Y: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Join(101, acoustics.Point{X: 9, Y: 8}); err != nil {
		t.Fatal(err)
	}
	sup.current = 0
	sup.currentLag = 20
	flips := 0
	for i := 0; i < 10; i++ {
		best := int32(i % 2)
		sup.ranked = append(sup.ranked[:0], rankedCandidate{slot: best, lag: 30, peak: 0.9})
		prev := sup.current
		sup.decide(best)
		if sup.current != prev {
			flips++
		}
	}
	if flips != 9 {
		t.Fatalf("naive mode flipped %d times over 10 alternating rounds, want 9", flips)
	}
}

// TestMeshUnhealthyRelayIneligible: a relay with a high concealment EWMA
// is excluded from candidacy even while its link is technically up.
func TestMeshUnhealthyRelayIneligible(t *testing.T) {
	cfg := testConfig(4)
	h := newMeshHarness(t, cfg, 12000)
	h.join(0, 24, acoustics.Point{X: 8, Y: 8.5}) // best lead, but lossy
	h.join(1, 12, acoustics.Point{X: 8.5, Y: 8})
	// Slot 0 drops every third sample: health EWMA ~0.33 > 0.25, and its
	// clean run never reaches warm-up.
	for i := 0; i < 9000; i++ {
		h.down[0] = i%3 == 0
		h.step(1)
	}
	if got := h.sup.Current(); got != 1 {
		t.Fatalf("associated with lossy slot %d, want 1; health %.3f", got, h.sup.mem.members[0].health.EWMA())
	}
	h.assertSwitchesWarm(warmupSamples)
}

// TestMeshRejoinKeepsHealth: a relay that expires and rejoins keeps its
// concealment EWMA (its link history) but restarts cold — both runs reset,
// so the warm-up gate holds until its stream has refilled.
func TestMeshRejoinKeepsHealth(t *testing.T) {
	cfg := testConfig(2)
	h := newMeshHarness(t, cfg, 4000)
	h.join(0, 12, acoustics.Point{X: 8, Y: 8.5})
	for i := 0; i < 2000; i++ {
		h.down[0] = i%4 == 0
		h.step(1)
	}
	h.down[0] = false
	h.step(warmupSamples)
	mb := &h.sup.mem.members[0]
	ewma := mb.health.EWMA()
	if ewma <= 0 || !h.sup.mem.warm(0) {
		t.Fatalf("setup: ewma %v, warm %v", ewma, h.sup.mem.warm(0))
	}
	h.sup.mem.expire(0)
	h.sup.dropped(0)
	if _, err := h.sup.Join(100, acoustics.Point{X: 8, Y: 8.5}); err != nil {
		t.Fatal(err)
	}
	if mb.health.EWMA() != ewma {
		t.Errorf("rejoin changed the health EWMA: %v → %v", ewma, mb.health.EWMA())
	}
	if mb.health.CleanRun() != 0 || mb.health.ConcealedRun() != 0 || h.sup.mem.warm(0) {
		t.Errorf("rejoined relay is not cold: clean %d, concealed %d, warm %v",
			mb.health.CleanRun(), mb.health.ConcealedRun(), h.sup.mem.warm(0))
	}
	if rep := h.sup.Report(); rep.Rejoins != 1 || rep.Expirations != 1 {
		t.Errorf("membership accounting: %+v", rep)
	}
}

// TestMeshLeavesUnhealthyIncumbent: an incumbent whose link drops every
// third sample never has a concealed run near emergencyRunSamples, but
// its smoothed concealment ratio crosses the eligibility a candidate must
// meet; the mesh leaves it for the warm, healthy relay at once, even
// though that relay offers less lookahead.
func TestMeshLeavesUnhealthyIncumbent(t *testing.T) {
	cfg := testConfig(4)
	h := newMeshHarness(t, cfg, 5000)
	h.join(0, 24, acoustics.Point{X: 8, Y: 8.5})
	h.join(1, 12, acoustics.Point{X: 8.5, Y: 8})
	h.step(2000)
	if h.sup.Current() != 0 {
		t.Fatalf("associated with %d, want 0", h.sup.Current())
	}
	// 64 samples take the EWMA (alpha 1/64) from 0 to about 0.2; by 128
	// it is past ineligibleRatio.
	for i := 0; i < 2000; i++ {
		h.down[0] = i%3 == 0
		h.step(1)
		if i == 128 && h.sup.Current() != 1 {
			t.Fatalf("still on slot %d with health %.3f after %d samples of 1-in-3 loss, want 1",
				h.sup.Current(), h.sup.mem.members[0].health.EWMA(), i+1)
		}
	}
	if got := h.sup.Current(); got != 1 {
		t.Fatalf("associated with lossy slot %d, want 1", got)
	}
	if rep := h.sup.Report(); rep.EmergencyHandoffs != 1 || rep.Handoffs != 2 || rep.OrphanedWindows != 0 {
		t.Fatalf("emergency handoffs/handoffs/orphanings = %d/%d/%d, want 1/2/0", rep.EmergencyHandoffs, rep.Handoffs, rep.OrphanedWindows)
	}
	h.assertSwitchesWarm(warmupSamples)
}

// TestMeshSimultaneousOutageHoldsThenStaggeredRecovery: every relay's
// link dies at once, for less than the heartbeat timeout, so the
// incumbent stays live. With nothing warm to move to the mesh holds the
// incumbent — no handoff between equally dead relays and no orphaning,
// which would play nothing even after the incumbent's link came back.
// The relays then recover one at a time, and the mesh adopts the first
// one that warms, never landing on a stream whose warm-up window still
// holds concealed samples.
func TestMeshSimultaneousOutageHoldsThenStaggeredRecovery(t *testing.T) {
	cfg := testConfig(4)
	h := newMeshHarness(t, cfg, 6000)
	h.join(0, 24, acoustics.Point{X: 8, Y: 8.5})
	h.join(1, 12, acoustics.Point{X: 8.5, Y: 8})
	h.join(2, 6, acoustics.Point{X: 7.5, Y: 8})
	h.step(2000)
	if h.sup.Current() != 0 {
		t.Fatalf("associated with %d, want 0", h.sup.Current())
	}
	switches := len(h.switches)

	h.down[0], h.down[1], h.down[2] = true, true, true
	h.step(1000)
	if got := len(h.switches) - switches; got != 0 || h.sup.Current() != 0 {
		t.Fatalf("%d association changes while every relay was dark (now %d), want 0 on slot 0; report %+v",
			got, h.sup.Current(), h.sup.Report())
	}
	if rep := h.sup.Report(); rep.OrphanedWindows != 0 || rep.Expirations != 0 {
		t.Fatalf("orphanings/expirations = %d/%d during a sub-timeout outage, want 0/0", rep.OrphanedWindows, rep.Expirations)
	}

	// Staggered recovery: slot 2 first, then slot 1.
	h.down[2] = false
	h.step(40)
	if h.sup.Current() != 0 {
		t.Fatalf("moved to slot %d only 40 samples into slot 2's recovery (warm-up %d), want 0", h.sup.Current(), warmupSamples)
	}
	h.step(500)
	if h.sup.Current() != 2 {
		t.Fatalf("associated with %d after slot 2 recovered and warmed, want 2; report %+v", h.sup.Current(), h.sup.Report())
	}
	h.down[1] = false
	h.step(500)
	if h.sup.Current() != 2 {
		t.Fatalf("associated with %d after slot 1 recovered inside the switch margin, want 2 still", h.sup.Current())
	}
	h.assertSwitchesWarm(warmupSamples)
}

// TestMeshFlappingRelayNeverAdopted pins the warm-up gate: a relay whose
// link drops one sample in 16 looks healthy to the smoothed ratio but
// never holds warmupSamples consecutive real samples, so it is never
// adopted — not while the incumbent is dark, nor once the incumbent has
// expired and the mesh is orphaned. When it steadies, it warms and is
// adopted.
func TestMeshFlappingRelayNeverAdopted(t *testing.T) {
	cfg := testConfig(4)
	h := newMeshHarness(t, cfg, 6000)
	h.join(0, 24, acoustics.Point{X: 8, Y: 8.5})
	h.join(1, 12, acoustics.Point{X: 8.5, Y: 8})
	h.step(1000)
	if h.sup.Current() != 0 {
		t.Fatalf("associated with %d, want 0", h.sup.Current())
	}
	h.down[0] = true
	for i := 0; i < 3000; i++ {
		h.down[1] = i%16 == 0
		h.step(1)
		if h.sup.Current() == 1 {
			t.Fatalf("adopted the flapping slot 1 at sample %d of the flap; its stream never warmed", i)
		}
	}
	if !h.sup.mem.healthy(1) {
		t.Fatalf("setup: flapper health %.3f should pass the eligibility test", h.sup.mem.members[1].health.EWMA())
	}
	h.down[1] = false
	h.step(600)
	if h.sup.Current() != 1 {
		t.Fatalf("associated with %d after the flapper steadied, want 1; report %+v", h.sup.Current(), h.sup.Report())
	}
	h.assertSwitchesWarm(warmupSamples)
}
