package fleet

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"mute/internal/stream"
	"mute/internal/telemetry"
)

// This file is the chaos harness: one deterministic run that throws every
// lifecycle hazard at the fleet at once — session churn storms, malformed
// datagram floods, a deliberately poisoned session, an overload spike
// that walks the pressure ladder up and back down, and a mid-run
// drain/adopt handoff between two servers — then audits the wreckage
// against invariants instead of golden outputs:
//
//	isolation   — the target session's residual is bit-identical to a
//	              "quiet" run with the same tick/drain/overload schedule
//	              but none of the chaos, so nothing the other sessions
//	              did (or the floods, or the poison) leaked into it;
//	conservation — every server's fleet.frames_in equals the sum of its
//	              sessions' frames_in + corrupt, and both frame pools end
//	              with gets == puts: no frame is lost or double-counted
//	              through churn, quarantine, shedding, or handoff;
//	containment — exactly the poisoned session quarantines, with its
//	              panic value retained;
//	hygiene     — the goroutine census is stable across the whole run.
//
// Everything is seeded and clock-free (ObserveTick lateness comes from a
// schedule, not wall time), so a failure replays exactly under -race or a
// debugger from the same ChaosConfig.

// Chaos session-id ranges. The target is the audited session; peers are
// long-lived background sessions; churn ids cycle through open/close
// storms; the mute session never sends a frame (idle-reap bait); the
// poisoned session's tick probe panics mid-run.
const (
	chaosTargetID = targetID
	chaosPeerBase = 1000
	chaosChurnID  = 100000
	chaosMuteID   = 200000
	chaosPoisonID = 300000
)

// targetID is the session whose residual the isolation and chaos suites
// pin (also used by the fleet test harness).
const targetID uint32 = 7

// The chaos schedule's hazard cadence, in blocks.
const (
	// chaosChurnEvery opens a fresh churn session — and close-storms the
	// previous one, then fires a datagram at the dead id — every this
	// many blocks.
	chaosChurnEvery = 8
	// chaosFloodEvery injects a malformed-datagram flood every this many
	// blocks.
	chaosFloodEvery = 4
)

// ChaosConfig tunes a chaos run. The zero value takes every default.
// The hazards land at fixed fractions of Blocks: the poisoned session's
// probe panics at Blocks/4, a synthetic overload spike fed to ObserveTick
// runs from Blocks/8 for 32 blocks — long enough to walk NORMAL →
// DEGRADED → SHEDDING, with recovery headroom before the drain — and
// server A drains into server B at 5*Blocks/8.
type ChaosConfig struct {
	// Peers is the number of long-lived background sessions (default 24).
	Peers int
	// Blocks is the total tick count across both servers (default 256).
	Blocks int
	// Seed offsets every user's impairment seed (default 1).
	Seed uint64
	// Shards is each server's tick fan-out (default 4, so the shard
	// goroutines run under -race).
	Shards int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Peers <= 0 {
		c.Peers = 24
	}
	if c.Blocks <= 0 {
		c.Blocks = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	return c
}

// chaosLifecycle is the ladder tuning chaos runs use: aggressive idle
// reaping and a short promotion dwell, so one run can ride the ladder all
// the way up and back down to NORMAL before the drain.
func chaosLifecycle() LifecycleConfig {
	return LifecycleConfig{IdleReapTicks: 8, UpDwellTicks: 16}
}

// ChaosResult is a chaos run's audit summary.
type ChaosResult struct {
	Blocks      int      `json:"blocks"`
	Peers       int      `json:"peers"`
	Churned     int64    `json:"churned"`
	Quarantined int64    `json:"quarantined"`
	Shed        int64    `json:"shed"`
	Drained     int64    `json:"drained"`
	Adopted     int      `json:"adopted"`
	Refused     int64    `json:"refused"`
	Unknown     int64    `json:"unknown_session"`
	BadEnvelope int64    `json:"bad_envelope"`
	FramesIn    int64    `json:"frames_in"`
	MaxPressure string   `json:"max_pressure"`
	Violations  []string `json:"violations,omitempty"`
}

// Ok reports whether every invariant held.
func (r *ChaosResult) Ok() bool { return len(r.Violations) == 0 }

// chaosFaults is a chaos user's impairment template: enough loss,
// reordering, and duplication to keep the demux honest, mild enough that
// no healthy session ever goes idle past the reap horizon.
func chaosFaults(id uint32, seed uint64) stream.LossParams {
	return stream.LossParams{
		Seed: seed + uint64(id), Loss: 0.05, MeanBurst: 2,
		Duplicate: 0.02, Reorder: 0.04, JitterProb: 0.08, MaxJitter: 2,
	}
}

// latenessSchedule is the synthetic overload signal: a flat 20 ms spike
// over the 32 blocks from Blocks/8, on-time everywhere else. Both the chaos
// and quiet runs feed the same schedule, so the ladder walks the same
// rungs at the same ticks in both.
func latenessSchedule(cfg ChaosConfig, block int) int64 {
	if from := cfg.Blocks / 8; block >= from && block < from+32 {
		return 20e6
	}
	return -1e6
}

// chaosRun executes the schedule once. quiet strips every hazard — no
// peers, churn, floods, poison, or mute session — but keeps the tick
// count, the lateness schedule, and the drain/adopt handoff, producing
// the reference residual the isolation invariant compares against.
func chaosRun(cfg ChaosConfig, quiet bool, res *ChaosResult) ([]float64, error) {
	p := lightChaosProfile()
	frame := p.FrameSamples
	residual := make([]float64, cfg.Blocks*frame)

	srvA := NewServer(Config{Shards: cfg.Shards, Lifecycle: chaosLifecycle()})
	srvB := NewServer(Config{Shards: cfg.Shards, Lifecycle: chaosLifecycle()})
	srv := srvA

	if _, err := srvA.Open(chaosTargetID, p, WithResidual(residual)); err != nil {
		return nil, err
	}
	target, err := newLoadUser(chaosTargetID, frame, chaosFaults(chaosTargetID, cfg.Seed), 0)
	if err != nil {
		return nil, err
	}
	users := []*loadUser{target}

	var poisoned *Session
	if !quiet {
		for i := 0; i < cfg.Peers; i++ {
			id := uint32(chaosPeerBase + i)
			if _, err := srvA.Open(id, p); err != nil {
				return nil, err
			}
			u, err := newLoadUser(id, frame, chaosFaults(id, cfg.Seed), 0)
			if err != nil {
				return nil, err
			}
			if i%3 == 0 {
				u.skewPPM = 150
			}
			users = append(users, u)
		}
		// The mute session never sends a frame: idle-reap bait for the
		// SHEDDING rung.
		if _, err := srvA.Open(chaosMuteID, p); err != nil {
			return nil, err
		}
		// The poisoned session panics from its own tick probe mid-run.
		poisoned, err = srvA.Open(chaosPoisonID, p, WithTickProbe(func(block int64) {
			if block == int64(cfg.Blocks/4) {
				panic("chaos: poisoned session profile")
			}
		}))
		if err != nil {
			return nil, err
		}
		pu, err := newLoadUser(chaosPoisonID, frame, chaosFaults(chaosPoisonID, cfg.Seed), 0)
		if err != nil {
			return nil, err
		}
		users = append(users, pu)
	}

	ingest := func(d []byte) error { return srv.Ingest(d) }
	var churnUser *loadUser
	var churnID uint32
	maxPressure := PressureNormal

	for b := 0; b < cfg.Blocks; b++ {
		for _, u := range users {
			if err := u.tick(ingest); err != nil {
				return nil, err
			}
		}
		if churnUser != nil {
			if err := churnUser.tick(ingest); err != nil {
				return nil, err
			}
		}
		if !quiet && b%chaosFloodEvery == 0 {
			floodMalformed(srv, uint32(chaosPeerBase+b%cfg.Peers))
		}
		if !quiet && b%chaosChurnEvery == 0 {
			var err error
			churnUser, churnID, err = churnStorm(srv, p, frame, cfg.Seed, churnUser, churnID, res)
			if err != nil {
				return nil, err
			}
		}
		if b == 5*cfg.Blocks/8 {
			snap, err := srv.Drain(context.Background())
			if err != nil {
				return nil, err
			}
			wire, err := snap.Marshal()
			if err != nil {
				return nil, err
			}
			parsed, err := ParseSnapshot(wire)
			if err != nil {
				return nil, err
			}
			err = srvB.Adopt(parsed, func(id uint32) []SessionOption {
				if id == chaosTargetID {
					return []SessionOption{WithResidual(residual[b*frame:])}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if res != nil {
				res.Adopted = len(parsed.Sessions)
			}
			churnUser = nil // its session drained into B; stop driving it
			srv = srvB
		}
		if err := srv.ProcessTick(); err != nil {
			return nil, err
		}
		srv.ObserveTick(latenessSchedule(cfg, b))
		if ps := srv.Pressure(); ps > maxPressure {
			maxPressure = ps
		}
	}

	if res != nil {
		res.MaxPressure = maxPressure.String()
		auditServers(srvA, srvB, poisoned, res)
	}
	if err := srvB.Close(); err != nil {
		return nil, err
	}
	if err := srvA.Close(); err != nil {
		return nil, err
	}
	if res != nil {
		auditPools(srvA, srvB, res)
	}
	return residual, nil
}

// lightChaosProfile mirrors the isolation suite's session shape: small
// taps so hundreds of sessions stay fast under -race.
func lightChaosProfile() Profile {
	p := DefaultProfile()
	p.CausalTaps = 16
	p.MaxNonCausalTaps = 8
	p.JitterDepth = 16
	return p
}

// floodMalformed fires the malformed-datagram arsenal at the server: bad
// magic, short envelope, version skew, and a truncated inner frame
// charged to a live session. None may take down the server or leak a
// pooled frame.
func floodMalformed(srv *Server, victim uint32) {
	srv.Ingest([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04})
	srv.Ingest([]byte{0x4d})
	srv.Ingest([]byte{0x4d, 0x46, 0x99, 0, 0, 0, 1, 0, 0})
	srv.Ingest(AppendEnvelope(nil, victim, []byte{0x01, 0x02, 0x03}))
	srv.Ingest(nil)
}

// churnStorm closes the previous churn session (then fires one more
// datagram at the dead id — the frame-racing-close case, which must count
// fleet.unknown_session, not error) and opens the next churn session.
// Opens refused by the ladder (ErrOverloaded) or a drain (ErrDraining)
// are part of the chaos, not failures.
func churnStorm(srv *Server, p Profile, frame int, seed uint64, prev *loadUser, prevID uint32, res *ChaosResult) (*loadUser, uint32, error) {
	ingest := func(d []byte) error { return srv.Ingest(d) }
	if prev != nil {
		if err := srv.CloseSession(prevID); err == nil {
			if err := prev.tick(ingest); err != nil { // lands after close: unknown session
				return nil, 0, err
			}
		}
	}
	id := prevID + 1
	if id < chaosChurnID {
		id = chaosChurnID
	}
	if _, err := srv.Open(id, p); err != nil {
		return nil, id, nil // shedding or draining: storm passes this round
	}
	if res != nil {
		res.Churned++
	}
	u, err := newLoadUser(id, frame, chaosFaults(id, seed), 0)
	if err != nil {
		return nil, 0, err
	}
	return u, id, nil
}

// auditServers checks the containment and conservation invariants while
// both servers' registries are still live.
func auditServers(srvA, srvB *Server, poisoned *Session, res *ChaosResult) {
	for _, srv := range []struct {
		name string
		s    *Server
	}{{"A", srvA}, {"B", srvB}} {
		merged := telemetry.NewRegistry()
		srv.s.MergeTelemetry(merged)
		snap := merged.Snapshot()
		in := snap.Counters["fleet.frames_in"]
		accounted := snap.Counters["fleet.session.frames_in"] + snap.Counters["fleet.session.corrupt"]
		if in != accounted {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"server %s: fleet.frames_in=%d but sessions account for %d", srv.name, in, accounted))
		}
		res.FramesIn += in
		res.Quarantined += snap.Counters["fleet.quarantined"]
		res.Shed += snap.Counters["fleet.shed"]
		res.Drained += snap.Counters["fleet.drained"]
		res.Refused += snap.Counters["fleet.refused"]
		res.Unknown += snap.Counters["fleet.unknown_session"]
		res.BadEnvelope += snap.Counters["fleet.bad_envelope"]
	}
	if res.Quarantined != 1 {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"fleet.quarantined = %d, want exactly the poisoned session", res.Quarantined))
	}
	if poisoned != nil && !poisoned.Quarantined() {
		res.Violations = append(res.Violations, "poisoned session not marked quarantined")
	}
	if poisoned != nil && poisoned.LastPanic() == "" {
		res.Violations = append(res.Violations, "quarantined session lost its panic value")
	}
	if res.Shed == 0 {
		res.Violations = append(res.Violations, "SHEDDING never reaped the idle mute session")
	}
	if res.BadEnvelope == 0 {
		res.Violations = append(res.Violations, "malformed floods were not counted")
	}
	if res.Unknown == 0 {
		res.Violations = append(res.Violations, "close-racing datagrams were not counted unknown")
	}
	if srvB.Lookup(chaosTargetID) == nil {
		res.Violations = append(res.Violations, "target session did not survive the handoff")
	}
}

// auditPools checks frame conservation after both servers have closed
// every session: each pool's gets must equal its puts.
func auditPools(srvA, srvB *Server, res *ChaosResult) {
	for _, srv := range []struct {
		name string
		s    *Server
	}{{"A", srvA}, {"B", srvB}} {
		_, gets, puts := srv.s.PoolStats()
		if gets != puts {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"server %s frame pool unbalanced: %d gets, %d puts", srv.name, gets, puts))
		}
	}
}

// settledGoroutines samples the goroutine count until two consecutive
// reads agree, bounding the runtime's asynchronous wind-down.
func settledGoroutines() int {
	deadline := time.Now().Add(2 * time.Second)
	prev := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// RunChaos executes the chaos schedule twice — once with every hazard,
// once quiet — and audits the invariants. The returned result lists every
// violation; Ok() means the fleet survived everything the run threw at
// it with the target session's output untouched bit for bit.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.withDefaults()
	res := &ChaosResult{Blocks: cfg.Blocks, Peers: cfg.Peers}

	before := settledGoroutines()
	chaotic, err := chaosRun(cfg, false, res)
	if err != nil {
		return nil, err
	}
	after := settledGoroutines()
	if after > before {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"goroutines grew %d → %d across the chaos run", before, after))
	}

	quiet, err := chaosRun(cfg, true, nil)
	if err != nil {
		return nil, err
	}
	for i := range chaotic {
		if math.Float64bits(chaotic[i]) != math.Float64bits(quiet[i]) {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"target residual diverged from the quiet run at sample %d: chaos contaminated a healthy session", i))
			break
		}
	}
	if res.MaxPressure != PressureShedding.String() {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"overload spike peaked at %s, never reached SHEDDING", res.MaxPressure))
	}
	return res, nil
}
