package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mute/internal/stream"
)

// fastLadder is a lifecycle tuning with no smoothing and single-tick
// dwells, so ladder unit tests can step rungs deterministically with one
// ObserveTick per transition.
func fastLadder() LifecycleConfig {
	return LifecycleConfig{EWMAAlpha: 1, DownDwellTicks: 1, UpDwellTicks: 1}
}

// TestLadderDwellAndHysteresis pins the ladder's transition rules with
// the default tuning: a demotion needs DownDwellTicks consecutive
// breaching observations, a promotion needs UpDwellTicks consecutive
// observations under half the demotion threshold, and a single spike or
// dip never moves the rung.
func TestLadderDwellAndHysteresis(t *testing.T) {
	lc := &lifecycle{cfg: LifecycleConfig{EWMAAlpha: 1}.withDefaults()}
	step := func(lateness int64) PressureState {
		state, _, _ := lc.observe(lateness)
		return state
	}

	// One breaching tick (or DownDwellTicks-1 of them) must not demote.
	for i := 0; i < lc.cfg.DownDwellTicks-1; i++ {
		if got := step(3e6); got != PressureNormal {
			t.Fatalf("demoted after %d breaching ticks, want dwell of %d", i+1, lc.cfg.DownDwellTicks)
		}
	}
	// A healthy tick resets the dwell counter.
	if got := step(0); got != PressureNormal {
		t.Fatalf("healthy tick moved the rung to %v", got)
	}
	for i := 0; i < lc.cfg.DownDwellTicks-1; i++ {
		step(3e6)
	}
	if got := step(3e6); got != PressureDegraded {
		t.Fatalf("after full dwell of breaching ticks, rung = %v, want DEGRADED", got)
	}

	// DEGRADED → SHEDDING needs the higher threshold; lateness between the
	// two thresholds neither demotes further nor promotes.
	for i := 0; i < 3*lc.cfg.DownDwellTicks; i++ {
		if got := step(3e6); got != PressureDegraded {
			t.Fatalf("mid-band lateness moved the rung to %v", got)
		}
	}
	for i := 0; i < lc.cfg.DownDwellTicks; i++ {
		step(9e6)
	}
	if got, _, _ := lc.observe(0); got != PressureShedding {
		t.Fatalf("sustained shed-level lateness left rung at %v, want SHEDDING", got)
	}

	// Promotion: lateness must sit under half the demotion threshold for
	// UpDwellTicks; half-threshold-grazing values never promote.
	for i := 0; i < 2*lc.cfg.UpDwellTicks; i++ {
		if got := step(5e6); got != PressureShedding {
			t.Fatalf("lateness above hysteresis band promoted to %v", got)
		}
	}
	for i := 0; i < lc.cfg.UpDwellTicks-1; i++ {
		if got := step(0); got != PressureShedding {
			t.Fatalf("promoted after %d healthy ticks, want dwell of %d", i+1, lc.cfg.UpDwellTicks)
		}
	}
	if got := step(0); got != PressureDegraded {
		t.Fatal("full healthy dwell did not promote SHEDDING → DEGRADED")
	}
	for i := 0; i < lc.cfg.UpDwellTicks; i++ {
		step(0)
	}
	if got := step(0); got != PressureNormal {
		t.Fatal("full healthy dwell did not promote DEGRADED → NORMAL")
	}
}

// TestDisarmedLadderNeverMoves pins the Disarm escape hatch: no lateness,
// however extreme, moves the rung.
func TestDisarmedLadderNeverMoves(t *testing.T) {
	lc := &lifecycle{cfg: LifecycleConfig{Disarm: true}.withDefaults()}
	for i := 0; i < 100; i++ {
		if state, changed, _ := lc.observe(1e9); state != PressureNormal || changed {
			t.Fatal("disarmed ladder moved")
		}
	}
}

// TestSheddingRefusesOpens drives the server ladder to SHEDDING through
// ObserveTick and pins the admission contract: Open refuses with a typed
// ErrOverloaded (counted fleet.refused), and admissions resume after the
// ladder promotes back out of SHEDDING.
func TestSheddingRefusesOpens(t *testing.T) {
	srv := NewServer(Config{Lifecycle: fastLadder()})
	defer srv.Close()
	srv.ObserveTick(3e6) // NORMAL → DEGRADED
	srv.ObserveTick(9e6) // DEGRADED → SHEDDING
	if got := srv.Pressure(); got != PressureShedding {
		t.Fatalf("pressure = %v, want SHEDDING", got)
	}
	if _, err := srv.Open(1, lightProfile()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Open under SHEDDING returned %v, want ErrOverloaded", err)
	}
	if got := srv.reg.Snapshot().Counters["fleet.refused"]; got != 1 {
		t.Fatalf("fleet.refused = %d, want 1", got)
	}
	srv.ObserveTick(0) // SHEDDING → DEGRADED
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

			srv.ObserveTick(3e6) // → DEGRADED
			// The posture lands on the session's own next tick, not immediately.
			if got := sess.pl.ActiveNonCausal(); got != full {
				t.Fatalf("posture applied outside the session's tick: %d taps", got)
			}
			if err := srv.ProcessTick(); err != nil {
				t.Fatal(err)
			}
			want := int(0.5 * float64(full))
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

			srv.ObserveTick(0) // → NORMAL
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
			srv.ObserveTick(3e6)
			srv.ObserveTick(9e6) // → SHEDDING from block 2 on
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
	srv2.ObserveTick(3e6)
	srv2.ObserveTick(9e6)
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
// the watchdog armed and every tick on time, the fleet stays NORMAL and
// every residual is bit-identical to a disarmed run — the watchdog's
// steady-state presence is one atomic load per session tick, never a
// behavioral change.
func TestWatchdogArmedNormalBitIdentity(t *testing.T) {
	run := func(disarm bool) []float64 {
		srv := NewServer(Config{Lifecycle: LifecycleConfig{Disarm: disarm}})
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
			srv.ObserveTick(-500_000) // on time, every tick
		}
		if got := srv.Pressure(); got != PressureNormal {
			t.Fatalf("on-time fleet left NORMAL: %v", got)
		}
		return residual
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("armed watchdog in NORMAL changed a session residual")
	}
}
