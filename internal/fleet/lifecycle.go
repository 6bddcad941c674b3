package fleet

import (
	"errors"
	"sync"
)

// This file is the fleet lifecycle layer's overload-control half: a
// tick-lateness watchdog driving a fleet-wide pressure ladder, the fleet
// analogue of the per-link degradation ladder in internal/supervisor.
// Where the supervisor watches one session's concealment ratio and trades
// cancellation depth for robustness, the watchdog watches the whole
// process's tick deadline margin and trades per-session quality for
// fleet-wide liveness:
//
//	NORMAL    — full profiles, admissions open.
//	DEGRADED  — every session's non-causal tap window is shrunk via the
//	            supervisor's LimitNonCausal hook (the cheaper posture on
//	            both the time-domain and FDAF paths); admissions stay open.
//	SHEDDING  — new Opens are refused with ErrOverloaded, and sessions
//	            that have not delivered a frame within IdleReapTicks are
//	            reaped (counted fleet.shed): an overloaded fleet sheds
//	            its starving tail instead of missing every deadline.
//
// Transitions carry dwell and hysteresis exactly like the supervisor's
// ladder: a demotion needs DownDwellTicks consecutive breaching ticks, a
// promotion needs UpDwellTicks consecutive ticks with the lateness EWMA
// under half the demotion threshold, so the ladder never flaps on one
// slow tick (a GC pause, a scheduler hiccup).
//
// The posture is applied lazily: state changes bump an epoch counter, and
// each session re-reads the epoch at the start of its own tick and
// reconfigures itself on its own goroutine. Sessions stay shared-nothing
// — the watchdog never reaches into a session from outside its tick.

// ErrOverloaded is returned by Open while the pressure ladder is in
// PressureShedding: the fleet is missing tick deadlines badly enough that
// admitting more sessions would make every existing session miss.
// Admission retries should back off until the fleet promotes.
var ErrOverloaded = errors.New("fleet: overloaded, shedding new sessions")

// ErrDraining is returned by Open after Drain has begun: the server is
// handing its sessions off and will not admit new ones.
var ErrDraining = errors.New("fleet: draining, not accepting sessions")

// PressureState is a rung of the fleet-wide overload ladder, ordered
// healthiest first.
type PressureState int32

const (
	// PressureNormal is the full-quality serving state.
	PressureNormal PressureState = iota
	// PressureDegraded shrinks every session's non-causal window.
	PressureDegraded
	// PressureShedding additionally refuses admissions and reaps idle
	// sessions.
	PressureShedding
)

// String names the rung for logs and telemetry.
func (p PressureState) String() string {
	switch p {
	case PressureNormal:
		return "NORMAL"
	case PressureDegraded:
		return "DEGRADED"
	case PressureShedding:
		return "SHEDDING"
	default:
		return "PressureState(?)"
	}
}

// The ladder's lateness thresholds, in nanoseconds of smoothed tick
// lateness.
const (
	// degradeLatenessNS demotes NORMAL → DEGRADED when the lateness EWMA
	// sits at or above it for DownDwellTicks: 2 ms, 20% of the default
	// 10 ms frame period.
	degradeLatenessNS = 2e6
	// shedLatenessNS demotes DEGRADED → SHEDDING: 8 ms, nearly a whole
	// frame late — every session is missing.
	shedLatenessNS = 4 * degradeLatenessNS
)

// LifecycleConfig tunes the watchdog and ladder. The zero value takes
// every default below; Disarm turns the watchdog off entirely (ObserveTick
// then only feeds the lateness histogram, as before the lifecycle layer).
type LifecycleConfig struct {
	// EWMAAlpha smooths the per-tick lateness into the pressure signal
	// (default 1/16: ~16 ticks ≈ 160 ms of history at the default frame).
	EWMAAlpha float64
	// DownDwellTicks is how many consecutive breaching ticks a demotion
	// needs (default 8).
	DownDwellTicks int
	// UpDwellTicks is how many consecutive ticks the EWMA must stay under
	// half the demotion threshold before a promotion (default 64 — the
	// asymmetry is deliberate: demote fast, promote cautiously).
	UpDwellTicks int
	// DegradedFraction is the fraction of each session's non-causal taps
	// kept live under DEGRADED and SHEDDING (default 0.5, matching the
	// supervisor's DEGRADED rung).
	DegradedFraction float64
	// IdleReapTicks is the starvation horizon under SHEDDING: a session
	// whose last ingested frame is more than this many ticks old is
	// closed and counted fleet.shed (default 512 ticks ≈ 5 s at the
	// default frame; 0 keeps the default, negative disables reaping).
	IdleReapTicks int
	// Disarm disables the ladder: the fleet stays in PressureNormal no
	// matter what ObserveTick reports.
	Disarm bool
}

func (c LifecycleConfig) withDefaults() LifecycleConfig {
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 1.0 / 16
	}
	if c.DownDwellTicks <= 0 {
		c.DownDwellTicks = 8
	}
	if c.UpDwellTicks <= 0 {
		c.UpDwellTicks = 64
	}
	if c.DegradedFraction <= 0 || c.DegradedFraction >= 1 {
		c.DegradedFraction = 0.5
	}
	if c.IdleReapTicks == 0 {
		c.IdleReapTicks = 512
	}
	return c
}

// lifecycle is the server's watchdog state. Ladder evaluation runs once
// per tick under its own mutex (never on the per-session path); the
// current rung and epoch are mirrored into atomics on the Server so the
// per-session tick reads them lock-free.
type lifecycle struct {
	mu  sync.Mutex
	cfg LifecycleConfig

	ewma       float64
	breachRun  int
	healthyRun int
	state      PressureState
}

// observe feeds one tick's lateness (ns; <= 0 means the tick beat its
// deadline) and returns the rung after ladder evaluation plus whether the
// rung changed this call.
func (lc *lifecycle) observe(latenessNS int64) (PressureState, bool, float64) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	late := float64(latenessNS)
	if late < 0 {
		late = 0
	}
	lc.ewma += lc.cfg.EWMAAlpha * (late - lc.ewma)
	if lc.cfg.Disarm {
		return lc.state, false, lc.ewma
	}

	prev := lc.state
	switch lc.state {
	case PressureNormal, PressureDegraded:
		down := float64(degradeLatenessNS)
		if lc.state == PressureDegraded {
			down = shedLatenessNS
		}
		if lc.ewma >= down {
			lc.healthyRun = 0
			lc.breachRun++
			if lc.breachRun >= lc.cfg.DownDwellTicks {
				lc.state++
				lc.breachRun = 0
			}
			break
		}
		lc.breachRun = 0
		if lc.state == PressureDegraded && lc.ewma < degradeLatenessNS/2 {
			lc.healthyRun++
			if lc.healthyRun >= lc.cfg.UpDwellTicks {
				lc.state = PressureNormal
				lc.healthyRun = 0
			}
		} else {
			lc.healthyRun = 0
		}
	case PressureShedding:
		lc.breachRun = 0
		if lc.ewma < shedLatenessNS/2 {
			lc.healthyRun++
			if lc.healthyRun >= lc.cfg.UpDwellTicks {
				lc.state = PressureDegraded
				lc.healthyRun = 0
			}
		} else {
			lc.healthyRun = 0
		}
	}
	return lc.state, lc.state != prev, lc.ewma
}

// Pressure returns the ladder's current rung.
func (s *Server) Pressure() PressureState {
	return PressureState(s.pressure.Load())
}

// applyPressure reconfigures the session for the fleet's current pressure
// posture, if it changed since this session last ticked. It runs at the
// start of tickSession — on the session's own tick goroutine, the only
// place session-owned filter state may be touched — so a rung change
// propagates within one tick without any cross-goroutine mutation. In
// steady state it costs one atomic load.
func (sess *Session) applyPressure(s *Server) {
	epoch := s.pressureEpoch.Load()
	if epoch == sess.pressureSeen {
		return
	}
	sess.pressureSeen = epoch
	sess.limitTaps(s)
}

// limitTaps sizes the session's non-causal window for the current rung.
func (sess *Session) limitTaps(s *Server) {
	n := sess.pl.NonCausalTaps
	if PressureState(s.pressure.Load()) >= PressureDegraded {
		n = int(s.lc.cfg.DegradedFraction * float64(n))
	}
	sess.pl.LimitNonCausal(n)
}

// quarantine marks the session poisoned after a recovered panic: it stops
// ticking, its datagrams are dropped on ingest, and Drain skips it. The
// shard keeps driving its neighbors — the panic is contained to the one
// session whose state caused it.
func (sess *Session) quarantine(msg string) {
	sess.panicMsg.Store(&msg)
	sess.quarantined.Store(true)
}

// Quarantined reports whether a recovered panic has poisoned this
// session.
func (sess *Session) Quarantined() bool { return sess.quarantined.Load() }

// LastPanic returns the recovered panic value that quarantined the
// session ("" while healthy).
func (sess *Session) LastPanic() string {
	if p := sess.panicMsg.Load(); p != nil {
		return *p
	}
	return ""
}

// WithTickProbe installs a hook called at the start of each of the
// session's ticks with the session's block index. It is a fault-injection
// surface: the poison-session tests and the chaos harness use a probe
// that panics to prove quarantine containment. Probes run on the
// session's tick goroutine.
func WithTickProbe(fn func(block int64)) SessionOption {
	return func(s *Session) { s.tickProbe = fn }
}
