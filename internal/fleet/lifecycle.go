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
//	DEGRADED  — every session's pipeline caps its non-causal tap window
//	            through graph's pressure input (the cheaper posture on
//	            both the time-domain and FDAF paths); admissions open.
//	SHEDDING  — new Opens are refused with ErrOverloaded, and sessions
//	            that have not delivered a frame within IdleReapTicks are
//	            reaped (counted fleet.shed): an overloaded fleet sheds
//	            its starving tail instead of missing every deadline.
//
// Transitions carry dwell and hysteresis exactly like the supervisor's
// ladder: a demotion needs downDwellTicks consecutive breaching ticks, a
// promotion needs UpDwellTicks consecutive ticks with the lateness EWMA
// under half the demotion threshold, so the ladder never flaps on one
// slow tick (a GC pause, a scheduler hiccup).
//
// The posture is applied lazily: each session reads the rung at the start
// of its own tick and sets its pipeline's pressure input on its own
// goroutine. Sessions stay shared-nothing — the watchdog never reaches
// into a session from outside its tick.

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

// The ladder's fixed tuning. Lateness thresholds are in nanoseconds of
// smoothed tick lateness.
const (
	// degradeLatenessNS demotes NORMAL → DEGRADED when the lateness EWMA
	// sits at or above it for downDwellTicks: 2 ms, 20% of the default
	// 10 ms frame period.
	degradeLatenessNS = 2e6
	// shedLatenessNS demotes DEGRADED → SHEDDING: 8 ms, nearly a whole
	// frame late — every session is missing.
	shedLatenessNS = 4 * degradeLatenessNS
	// latenessAlpha smooths the per-tick lateness into the pressure
	// signal: ~16 ticks ≈ 160 ms of history at the default frame.
	latenessAlpha = 1.0 / 16
	// downDwellTicks is how many consecutive breaching ticks a demotion
	// needs.
	downDwellTicks = 8
)

// LifecycleConfig tunes the watchdog and ladder. The zero value takes
// every default below.
type LifecycleConfig struct {
	// UpDwellTicks is how many consecutive ticks the EWMA must stay under
	// half the demotion threshold before a promotion (default 64 — the
	// asymmetry is deliberate: demote fast, promote cautiously).
	UpDwellTicks int
	// IdleReapTicks is the starvation horizon under SHEDDING: a session
	// whose last ingested frame is more than this many ticks old is
	// closed and counted fleet.shed (default 512 ticks ≈ 5 s at the
	// default frame; 0 keeps the default, negative disables reaping).
	IdleReapTicks int
}

func (c LifecycleConfig) withDefaults() LifecycleConfig {
	if c.UpDwellTicks <= 0 {
		c.UpDwellTicks = 64
	}
	if c.IdleReapTicks == 0 {
		c.IdleReapTicks = 512
	}
	return c
}

// lifecycle is the server's watchdog state. Ladder evaluation runs once
// per tick under its own mutex (never on the per-session path); the
// current rung is mirrored into an atomic on the Server so the
// per-session tick reads it lock-free.
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
	lc.ewma += latenessAlpha * (late - lc.ewma)

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
			if lc.breachRun >= downDwellTicks {
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

// applyPressure sets the session pipeline's pressure input from the
// fleet's rung, at birth and at the start of each of the session's own
// ticks, the only place session-owned filter state may be touched.
func (sess *Session) applyPressure(s *Server) { sess.pl.SetPressure(s.Pressure() >= PressureDegraded) }

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
