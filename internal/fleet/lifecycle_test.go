package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mute/internal/stream"
)

// fastLadder is a lifecycle tuning with single-tick promotion dwells.
func fastLadder() LifecycleConfig {
	return LifecycleConfig{UpDwellTicks: 1}
}

// pressTo feeds srv's watchdog lateness until its ladder reaches want:
// 3 ms a tick (between the two demotion thresholds) to reach DEGRADED
// from NORMAL, 9 ms (past both) to reach SHEDDING, and on time to
// promote. The ladder smooths and dwells, so a move takes tens of
// observations; they all land between two ProcessTicks.
func pressTo(t *testing.T, srv *Server, want PressureState) {
	t.Helper()
	for i := 0; srv.Pressure() != want; i++ {
		if i == 1000 {
			t.Fatalf("pressure %v after %d observations, want %v", srv.Pressure(), i, want)
		}
		var late int64
		switch {
		case want == PressureDegraded && srv.Pressure() < want:
			late = 3e6
		case want == PressureShedding:
			late = 9e6
		}
		srv.ObserveTick(late)
	}
}

// TestLadderDwellAndHysteresis pins the ladder's transition rules with
// the default tuning: a demotion needs downDwellTicks consecutive
// observations with the lateness EWMA at or over the threshold, a
// promotion needs UpDwellTicks consecutive observations under half of
// it, and a breach shorter than the dwell never moves the rung.
func TestLadderDwellAndHysteresis(t *testing.T) {
	lc := &lifecycle{cfg: LifecycleConfig{}.withDefaults()}
	// feed observes lateness until the EWMA reaches the far side of level
	// (rising when lateness is above it), requiring the rung to stay at
	// hold on every observation.
	feed := func(lateness int64, level float64, hold PressureState) {
		t.Helper()
		rising := float64(lateness) > level
		for n := 1; ; n++ {
			state, _, ewma := lc.observe(lateness)
			if state != hold {
				t.Fatalf("rung %v with the EWMA at %g on its way to %g, want %v", state, ewma, level, hold)
			}
			if rising == (ewma >= level) {
				return
			}
			if n == 1000 {
				t.Fatalf("EWMA stuck at %g on its way to %g", ewma, level)
			}
		}
	}
	// step observes lateness n times, requiring rung want after each.
	step := func(lateness int64, n int, want PressureState) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got, _, ewma := lc.observe(lateness); got != want {
				t.Fatalf("observation %d of %d at %d ns: rung %v (EWMA %g), want %v", i+1, n, lateness, got, ewma, want)
			}
		}
	}

	// The EWMA dipping back under the threshold resets the dwell, and a
	// breach one observation short of the dwell must not demote.
	feed(3e6, degradeLatenessNS, PressureNormal) // the first breaching observation
	feed(0, degradeLatenessNS, PressureNormal)
	feed(3e6, degradeLatenessNS, PressureNormal)
	step(3e6, downDwellTicks-2, PressureNormal)
	step(3e6, 1, PressureDegraded)

	// DEGRADED → SHEDDING needs the higher threshold; lateness between the
	// two thresholds neither demotes further nor promotes.
	step(3e6, 3*downDwellTicks, PressureDegraded)
	feed(9e6, shedLatenessNS, PressureDegraded)
	step(9e6, downDwellTicks-2, PressureDegraded)
	step(9e6, 1, PressureShedding)

	// Promotion: the EWMA must sit under half the demotion threshold for
	// UpDwellTicks; lateness above the hysteresis band never promotes.
	step(5e6, 2*lc.cfg.UpDwellTicks, PressureShedding)
	feed(0, shedLatenessNS/2, PressureShedding)
	step(0, lc.cfg.UpDwellTicks-2, PressureShedding)
	step(0, 1, PressureDegraded)
	feed(0, degradeLatenessNS/2, PressureDegraded)
	step(0, lc.cfg.UpDwellTicks-2, PressureDegraded)
	step(0, 1, PressureNormal)
}

// TestSheddingRefusesOpens drives the server ladder to SHEDDING through
// ObserveTick and pins the admission contract: Open refuses with a typed
// ErrOverloaded (counted fleet.refused), and admissions resume after the
// ladder promotes back out of SHEDDING.
func TestSheddingRefusesOpens(t *testing.T) {
	srv := NewServer(Config{Lifecycle: fastLadder()})
	defer srv.Close()
	pressTo(t, srv, PressureShedding)
	if _, err := srv.Open(1, lightProfile()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Open under SHEDDING returned %v, want ErrOverloaded", err)
	}
	if got := srv.reg.Snapshot().Counters["fleet.refused"]; got != 1 {
		t.Fatalf("fleet.refused = %d, want 1", got)
	}
	pressTo(t, srv, PressureDegraded)
	if _, err := srv.Open(1, lightProfile()); err != nil {
		t.Fatalf("Open under DEGRADED refused: %v", err)
	}
	if got := srv.reg.Snapshot().Gauges["fleet.pressure_state"]; got != float64(PressureDegraded) {
		t.Fatalf("fleet.pressure_state gauge = %v, want %v", got, float64(PressureDegraded))
	}
}

// TestPressureAppliesTapLimit pins the lazy posture propagation on both
// canceller kinds: a rung change reconfigures each session's non-causal
// window on that session's next tick (never from the watchdog's
// goroutine), sessions opened under DEGRADED are born with the shrunken
// window, and promotion back to NORMAL restores the full window.
func TestPressureAppliesTapLimit(t *testing.T) {
	for _, fdafBlock := range []int{0, 16} {
		t.Run(fmt.Sprintf("fdaf%d", fdafBlock), func(t *testing.T) {
			srv := NewServer(Config{Lifecycle: fastLadder()})
			defer srv.Close()
			p := lightProfile()
			p.FDAFBlock = fdafBlock
			sess, err := srv.Open(targetID, p)
			if err != nil {
				t.Fatal(err)
			}
			full := sess.pl.NonCausalTaps
			if full == 0 {
				t.Fatal("the profile plans no non-causal taps — test is vacuous")
			}
			if got := sess.pl.ActiveNonCausal(); got != full {
				t.Fatalf("fresh session runs %d non-causal taps, want %d", got, full)
			}

			pressTo(t, srv, PressureDegraded)
			// The posture lands on the session's own next tick, not immediately.
			if got := sess.pl.ActiveNonCausal(); got != full {
				t.Fatalf("posture applied outside the session's tick: %d taps", got)
			}
			if err := srv.ProcessTick(); err != nil {
				t.Fatal(err)
			}
			want := full / 2
			if got := sess.pl.ActiveNonCausal(); got != want {
				t.Fatalf("DEGRADED session runs %d non-causal taps, want %d", got, want)
			}

			// A session opened while DEGRADED adopts the posture at birth.
			born, err := srv.Open(100, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := born.pl.ActiveNonCausal(); got != want {
				t.Fatalf("session born under DEGRADED runs %d taps, want %d", got, want)
			}

			pressTo(t, srv, PressureNormal)
			if err := srv.ProcessTick(); err != nil {
				t.Fatal(err)
			}
			if got := sess.pl.ActiveNonCausal(); got != full {
				t.Fatalf("promoted session runs %d taps, want full window %d", got, full)
			}
		})
	}
}

// TestIdleReapUnderShedding pins the shed path: under SHEDDING, a session
// that has not delivered a frame within IdleReapTicks is closed and
// counted fleet.shed, while sessions with fresh frames keep serving.
func TestIdleReapUnderShedding(t *testing.T) {
	cfg := fastLadder()
	cfg.IdleReapTicks = 4
	srv := NewServer(Config{Lifecycle: cfg})
	defer srv.Close()
	p := lightProfile()
	if _, err := srv.Open(1, p); err != nil { // fed every block
		t.Fatal(err)
	}
	if _, err := srv.Open(2, p); err != nil { // never fed: starving
		t.Fatal(err)
	}
	u := newSimUser(t, 1, p.FrameSamples, stream.LossParams{})
	for b := 0; b < 12; b++ {
		for _, d := range u.tick() {
			if err := srv.Ingest(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.ProcessTick(); err != nil {
			t.Fatal(err)
		}
		if b == 1 {
			pressTo(t, srv, PressureShedding) // from block 2 on
		}
	}
	if srv.Lookup(2) != nil {
		t.Fatal("starving session survived 10 SHEDDING ticks past a 4-tick reap horizon")
	}
	if srv.Lookup(1) == nil {
		t.Fatal("actively-fed session was reaped")
	}
	if got := srv.reg.Snapshot().Counters["fleet.shed"]; got != 1 {
		t.Fatalf("fleet.shed = %d, want 1", got)
	}
	// Reaping disabled: a negative horizon never reaps.
	cfg.IdleReapTicks = -1
	srv2 := NewServer(Config{Lifecycle: cfg})
	defer srv2.Close()
	if _, err := srv2.Open(9, p); err != nil {
		t.Fatal(err)
	}
	pressTo(t, srv2, PressureShedding)
	for b := 0; b < 12; b++ {
		if err := srv2.ProcessTick(); err != nil {
			t.Fatal(err)
		}
	}
	if srv2.Lookup(9) == nil {
		t.Fatal("reaping ran with IdleReapTicks < 0")
	}
}

// TestWatchdogArmedNormalBitIdentity pins the bench-gate premise: with
// the watchdog fed and every tick on time, the fleet stays NORMAL and
// every residual is bit-identical to a run whose watchdog is never fed —
// the watchdog's steady-state presence is one atomic load per session
// tick, never a behavioral change.
func TestWatchdogArmedNormalBitIdentity(t *testing.T) {
	run := func(observe bool) []float64 {
		srv := NewServer(Config{})
		defer srv.Close()
		p := lightProfile()
		const blocks = 16
		residual := make([]float64, blocks*p.FrameSamples)
		if _, err := srv.Open(targetID, p, WithResidual(residual)); err != nil {
			t.Fatal(err)
		}
		users := []*simUser{newSimUser(t, targetID, p.FrameSamples, targetFaults())}
		for i := 0; i < 8; i++ {
			id := uint32(1000 + i)
			if _, err := srv.Open(id, p); err != nil {
				t.Fatal(err)
			}
			users = append(users, newSimUser(t, id, p.FrameSamples, peerFaults(id)))
		}
		for b := 0; b < blocks; b++ {
			var wg sync.WaitGroup
			for _, u := range users {
				wg.Add(1)
				go func(u *simUser) {
					defer wg.Done()
					for _, d := range u.tick() {
						srv.Ingest(d)
					}
				}(u)
			}
			wg.Wait()
			if err := srv.ProcessTick(); err != nil {
				t.Fatal(err)
			}
			if observe {
				srv.ObserveTick(-500_000) // on time, every tick
			}
		}
		if got := srv.Pressure(); got != PressureNormal {
			t.Fatalf("on-time fleet left NORMAL: %v", got)
		}
		return residual
	}
	if !reflect.DeepEqual(run(true), run(false)) {
		t.Fatal("armed watchdog in NORMAL changed a session residual")
	}
}
