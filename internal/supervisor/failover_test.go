package supervisor

import (
	"testing"

	"mute/internal/audio"
)

// failoverHarness drives a Failover while mirroring each relay's
// concealment history, so tests can assert on what the stream a switch
// lands on actually contained.
type failoverHarness struct {
	t        *testing.T
	f        *Failover
	gen      audio.Generator
	relays   int
	history  [][]bool // per-relay real flags, full run
	actives  []int    // active relay after every step
	switches []int    // step indices where the active relay changed
}

func newFailoverHarness(t *testing.T, cfg FailoverConfig) *failoverHarness {
	t.Helper()
	f, err := NewFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &failoverHarness{
		t:       t,
		f:       f,
		gen:     audio.NewWhiteNoise(17, 8000, 0.3),
		relays:  cfg.Relays,
		history: make([][]bool, cfg.Relays),
	}
}

// feed steps the failover n times with the given per-relay liveness.
func (h *failoverHarness) feed(n int, real []bool) {
	h.t.Helper()
	fwd := make([]float64, h.relays)
	rl := make([]bool, h.relays)
	for i := 0; i < n; i++ {
		x := h.gen.Next()
		for r := 0; r < h.relays; r++ {
			fwd[r] = x
			rl[r] = real[r]
			h.history[r] = append(h.history[r], real[r])
		}
		prev := h.f.active
		idx, err := h.f.Step(fwd, rl)
		if err != nil {
			h.t.Fatal(err)
		}
		if idx != prev && len(h.actives) > 0 {
			h.switches = append(h.switches, len(h.actives))
		}
		h.actives = append(h.actives, idx)
	}
}

// assertSwitchesWarm pins the make-before-break invariant: at every switch
// moment, the incoming relay's last warmup samples were all genuinely
// received — the canceller is never handed a stream whose window still
// holds concealed samples.
func (h *failoverHarness) assertSwitchesWarm(warmup int) {
	h.t.Helper()
	for _, at := range h.switches {
		relay := h.actives[at]
		if at < warmup {
			h.t.Fatalf("switch to relay %d at step %d, before %d samples of history exist", relay, at, warmup)
		}
		// The window ends at the sample consumed in the switching step.
		for j := at - warmup + 1; j <= at; j++ {
			if !h.history[relay][j] {
				h.t.Errorf("switch to relay %d at step %d: its sample %d (within the %d-sample warm-up window) was concealed",
					relay, at, j, warmup)
				break
			}
		}
	}
}

// TestFailoverSimultaneousOutageStaggeredRecovery covers the worst case
// the single-outage tests skip: every relay's link dies at once, then the
// relays come back one at a time. The failover must hold position while
// nothing is warm (no thrash between equally dead relays), adopt the
// first relay only after its stream has flushed the concealment from its
// window, and never — at any switch — land on a relay whose warm-up
// window still holds concealed samples.
func TestFailoverSimultaneousOutageStaggeredRecovery(t *testing.T) {
	const warmup = 96
	h := newFailoverHarness(t, FailoverConfig{
		Relays:             3,
		EWMAAlpha:          1.0 / 32,
		UnhealthyThreshold: 0.3,
		SwitchMargin:       0.05,
		HoldSamples:        16,
		WarmupSamples:      warmup,
	})

	h.feed(300, []bool{true, true, true}) // converge on relay 0
	if h.f.active != 0 {
		t.Fatalf("active = %d on healthy links, want 0", h.f.active)
	}

	// Simultaneous multi-relay outage: every stream concealed.
	h.feed(500, []bool{false, false, false})
	if got := len(h.switches); got != 0 {
		t.Fatalf("failover made %d switches while every relay was dead, want 0 (no thrash between dead relays)", got)
	}

	// Staggered recovery: relay 2 first, then relay 1, then relay 0.
	h.feed(40, []bool{false, false, true}) // relay 2 back but not yet warm
	if h.f.active != 0 {
		t.Fatalf("active = %d only %d samples into relay 2's recovery (warm-up %d), want 0",
			h.f.active, 40, warmup)
	}
	h.feed(400, []bool{false, false, true})
	if h.f.active != 2 {
		t.Fatalf("active = %d after relay 2 recovered and warmed, want 2 (health %v)", h.f.active, h.f.health)
	}
	h.feed(400, []bool{false, true, true}) // relay 1 back; relay 2 already fine — no reason to move
	if h.f.active != 2 {
		t.Fatalf("active = %d after relay 1 recovered, want 2 still", h.f.active)
	}
	h.feed(800, []bool{true, true, true}) // relay 0 (standing preference) back
	if h.f.active != 0 {
		t.Fatalf("active = %d after full recovery, want the preferred relay 0 (health %v)", h.f.active, h.f.health)
	}

	h.assertSwitchesWarm(warmup)
}

// TestFailoverColdRelayNeverAdopted pins the gate directly: a relay whose
// link is flapping fast enough that it never accumulates WarmupSamples
// consecutive real samples is never switched to, even when the active
// relay is dead and the flapper's smoothed health looks better.
func TestFailoverColdRelayNeverAdopted(t *testing.T) {
	const warmup = 64
	h := newFailoverHarness(t, FailoverConfig{
		Relays:             2,
		EWMAAlpha:          1.0 / 32,
		UnhealthyThreshold: 0.3,
		SwitchMargin:       0.05,
		HoldSamples:        16,
		WarmupSamples:      warmup,
	})
	h.feed(200, []bool{true, true})
	if h.f.active != 0 {
		t.Fatalf("active = %d, want 0", h.f.active)
	}
	// Relay 0 dies outright; relay 1 flaps with a 16-sample period — its
	// EWMA health stays far better than the dead relay's, but it never
	// holds warmup consecutive real samples.
	real := []bool{false, true}
	for i := 0; i < 2000; i++ {
		if i%16 == 0 {
			real[1] = false
		} else {
			real[1] = true
		}
		h.feed(1, real)
	}
	if h.f.active != 0 {
		t.Fatalf("failover adopted the flapping relay (active = %d); its stream never warmed", h.f.active)
	}
	// The flapper steadies; now it warms and the failover moves.
	h.feed(400, []bool{false, true})
	if h.f.active != 1 {
		t.Fatalf("active = %d after the flapper steadied, want 1", h.f.active)
	}
	h.assertSwitchesWarm(warmup)
}
