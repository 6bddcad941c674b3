package sim

import (
	"fmt"
	"math"
	"math/rand"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/graph"
	"mute/internal/mesh"
	"mute/internal/telemetry"
)

// MeshScenario describes a dense-mesh cancellation run: one noise source
// (optionally walking), a fixed ear, Relays relay microphones scattered
// over the floor, and a seeded fault schedule. The acoustic model is
// deliberately the anechoic delay-line one — every leg is a pure
// time-of-flight delay of the clean source — because the quantity under
// test is association quality (which relay, switched when, blended how),
// and delay lines keep a 200-relay mesh with a moving source cheap enough
// to sweep. Reverberant legs would scale every cell by relays × RIR
// length without changing the ordering the experiment measures.
type MeshScenario struct {
	// SampleRate in Hz (default 8000) and Duration in seconds (required).
	SampleRate float64
	Duration   float64
	// Relays is the mesh size (required). Positions are a seeded uniform
	// scatter over the room interior.
	Relays int
	// Seed drives relay placement, the noise, the fault schedule, and the
	// per-relay background loss processes.
	Seed uint64
	// NoiseAmp scales the source (default 0.5).
	NoiseAmp float64

	// Walking moves the source along a fixed ping-pong path at WalkSpeed
	// m/s (default 1.2); otherwise the source sits at the path's start.
	Walking   bool
	WalkSpeed float64

	// ChurnPerMin is the crash churn handed to the fault injector (0 =
	// static mesh). When churn is on, one flapping relay is pinned next to
	// the source path — the adversarial case hysteresis exists for.
	ChurnPerMin float64
	// BgLoss is each relay link's background loss rate (default 0.01),
	// delivered in short bursts.
	BgLoss float64

	// Naive switches the mesh supervisor to the per-round argmax baseline.
	Naive bool

	// Telemetry and Trace are optional observation hooks (result-neutral).
	Telemetry *telemetry.Registry
	Trace     *telemetry.Trace
}

// MeshResult is one mesh run's outcome.
type MeshResult struct {
	// ResidualDB is residual vs uncancelled power at the ear over the
	// second half of the run (negative is better).
	ResidualDB float64
	// Report is the mesh supervisor's accounting.
	Report mesh.Report
	// MaxLeadSamples is the largest geometric lookahead any relay could
	// offer during the run (the non-causal budget the pipeline planned
	// with).
	MaxLeadSamples int
	// FaultEvents is the number of link transitions the injector replayed.
	FaultEvents int
}

// room geometry shared by every mesh run: a 12 m floor with the ear at
// the center and the source path offset from it. The offset matters: a
// path through the ear would have source→ear flight time collapse to
// zero at the crossing, where no relay anywhere can physically lead the
// ear and lookahead-based cancellation is impossible for every policy.
var (
	meshEar       = acoustics.Point{X: 6, Y: 6}
	meshPathStart = acoustics.Point{X: 2, Y: 3}
	meshPathEnd   = acoustics.Point{X: 10, Y: 3}
)

// RunMesh builds the scenario, wires the mesh supervisor into the
// standard cancellation graph as its reference source, and scores the
// run.
func RunMesh(sc MeshScenario) (*MeshResult, error) {
	if sc.Duration <= 0 {
		return nil, fmt.Errorf("sim: mesh duration %g must be positive", sc.Duration)
	}
	if sc.Relays <= 0 {
		return nil, fmt.Errorf("sim: mesh needs relays, got %d", sc.Relays)
	}
	if sc.SampleRate <= 0 {
		sc.SampleRate = 8000
	}
	if sc.NoiseAmp <= 0 {
		sc.NoiseAmp = 0.5
	}
	if sc.WalkSpeed <= 0 {
		sc.WalkSpeed = 1.2
	}
	if sc.BgLoss < 0 {
		return nil, fmt.Errorf("sim: background loss %g must be non-negative", sc.BgLoss)
	}
	fs := sc.SampleRate
	n := int(sc.Duration * fs)

	// Relay scatter. rng draws are position-only so layouts are identical
	// across policies sharing a seed.
	rng := rand.New(rand.NewSource(int64(sc.Seed)))
	positions := make([]acoustics.Point, sc.Relays)
	for i := range positions {
		positions[i] = acoustics.Point{X: 0.75 + rng.Float64()*10.5, Y: 0.75 + rng.Float64()*10.5}
	}

	// Source trajectory: ping-pong along the path at walking speed.
	pathLen := meshPathStart.Dist(meshPathEnd)
	srcAt := func(t int64) acoustics.Point {
		if !sc.Walking {
			return meshPathStart
		}
		d := math.Mod(sc.WalkSpeed*float64(t)/fs, 2*pathLen)
		if d > pathLen {
			d = 2*pathLen - d
		}
		f := d / pathLen
		return acoustics.Point{
			X: meshPathStart.X + f*(meshPathEnd.X-meshPathStart.X),
			Y: meshPathStart.Y + f*(meshPathEnd.Y-meshPathStart.Y),
		}
	}

	// The largest lookahead any relay can offer is the source→ear flight
	// time itself (a relay standing on the source); plan the non-causal
	// budget from the worst case along the path.
	maxEarDist := meshEar.Dist(meshPathStart)
	if d := meshEar.Dist(meshPathEnd); d > maxEarDist {
		maxEarDist = d
	}
	maxLead := int(math.Ceil(maxEarDist/acoustics.SpeedOfSound*fs)) + 8

	// Clean source and the ear's acoustic leg (time-varying delay line).
	// Low-passed machine noise, as in the outage experiment: the walking
	// source sweeps every leg's time of flight continuously, and a
	// tracking lag of δ samples costs residual power that scales with
	// (frequency·δ)² — wideband noise would bury the association effects
	// under tracking error no policy can remove.
	src, err := audio.NewBandLimitedNoise(sc.Seed+1, fs, sc.NoiseAmp, 1200)
	if err != nil {
		return nil, err
	}
	clean := audio.Render(src, n)
	// Fractional (linearly interpolated) delay lines: a walking source
	// sweeps the time of flight continuously, and quantizing it to whole
	// samples would turn smooth tap drift into hard 1-sample jumps the
	// adaptive filter has to re-converge after.
	delayed := func(t int64, d float64) float64 {
		ft := float64(t) - d
		if ft <= 0 {
			return 0
		}
		i := int(ft)
		frac := ft - float64(i)
		if i+1 >= len(clean) {
			return clean[len(clean)-1]
		}
		return clean[i]*(1-frac) + clean[i+1]*frac
	}
	delayOf := func(from acoustics.Point, to acoustics.Point) float64 {
		return from.Dist(to) / acoustics.SpeedOfSound * fs
	}
	earSig := make([]float64, n)
	for t := 0; t < n; t++ {
		earSig[t] = delayed(int64(t), delayOf(srcAt(int64(t)), meshEar))
	}

	// Fault schedule: crash churn, plus flappers pinned along the path
	// when churn is on — the adversarial placement hysteresis exists for.
	// The flap period is shorter than the heartbeat timeout, so a flapper
	// never expires: it stays live, acoustically tempting, and delivers
	// concealment to whoever associates with it.
	icfg := mesh.InjectorConfig{
		Seed:        int64(sc.Seed) + 7,
		Duration:    int64(n),
		SampleRate:  fs,
		ChurnPerMin: sc.ChurnPerMin,
	}
	if sc.ChurnPerMin > 0 {
		for _, f := range []float64{0.25, 0.5, 0.75} {
			at := acoustics.Point{
				X: meshPathStart.X + f*(meshPathEnd.X-meshPathStart.X),
				Y: meshPathStart.Y + f*(meshPathEnd.Y-meshPathStart.Y),
			}
			flapper, bestD := 0, math.Inf(1)
			for i, p := range positions {
				if d := at.Dist(p); d < bestD {
					flapper, bestD = i, d
				}
			}
			icfg.FlapperAt = append(icfg.FlapperAt, flapper)
		}
	}
	inj := mesh.NewInjector(icfg, len(positions))

	// Per-relay background burst loss: independent seeded dropout
	// processes (48-sample bursts at the configured rate).
	const burstLen = 48
	bgDown := make([]int, sc.Relays)
	lossRNG := make([]*rand.Rand, sc.Relays)
	for i := range lossRNG {
		lossRNG[i] = rand.New(rand.NewSource(int64(sc.Seed)*131 + int64(i)))
	}
	bgLoss := sc.BgLoss
	if sc.BgLoss == 0 {
		bgLoss = 0.01
	}
	pBurst := bgLoss / burstLen

	mcfg := mesh.Config{
		Capacity: sc.Relays,
		EarPos:   meshEar,
		// 128 ms window: long enough to steady PHAT lags on band-limited
		// noise, short enough that a walking source's changing TDOA is not
		// smeared across the estimate.
		WindowSamples: 1024,
		MaxLagSamples: 240,
		// A relay must lead the ear by at least a millisecond to be worth
		// associating with; an incumbent that falls below this floor is
		// failing and triggers the distress/rescue path.
		MinLeadSamples: 8,
		// Genuine correlations against this band-limited source peak near
		// 0.3; spurious PHAT flukes sit just above the package default of
		// 0.05, and in a wide distress cohort the lag argmax is usually
		// such a fluke — gate them out.
		MinPeak: 0.12,
		// Slow concealment EWMA: a relay flapping at ~1024-sample period
		// must stay marked unhealthy through its up-phases, not be
		// forgiven the moment its stream briefly recovers.
		HealthAlpha: 1.0 / 2048,
		CellSize:    1.5,
		MaxX:        12, MaxY: 12,
		// Band-limited noise widens the PHAT peak, so the switch margin
		// sits above the per-round lag jitter: a challenger must out-lead
		// the incumbent by more than measurement noise, for a full dwell,
		// before a handoff is worth its re-adaptation transient.
		SwitchMarginSamples: 16,
		Naive:               sc.Naive,
	}
	sup, err := mesh.NewSupervisor(mcfg, sc.Telemetry, sc.Trace)
	if err != nil {
		return nil, err
	}
	for i, p := range positions {
		if _, err := sup.Join(int64(i), p); err != nil {
			return nil, err
		}
	}

	prevDown := make([]bool, sc.Relays)
	var srcPos acoustics.Point
	ref := &mesh.Source{
		Sup: sup,
		Tick: func(t int64) {
			inj.Advance(t)
			srcPos = srcAt(t)
			for r := 0; r < sc.Relays; r++ {
				if bgDown[r] > 0 {
					bgDown[r]--
				} else if lossRNG[r].Float64() < pBurst {
					bgDown[r] = burstLen
				}
				down := inj.Down(r)
				if prevDown[r] && !down {
					// The relay's link recovered: it re-registers (a rejoin
					// if the mesh already expired it).
					if _, err := sup.Join(int64(r), positions[r]); err != nil {
						panic(err) // capacity cannot be exceeded by a rejoin
					}
				}
				prevDown[r] = down
			}
		},
		Local: func(t int64) float64 { return earSig[t] },
		Feed: func(slot int, t int64) (float64, bool) {
			if inj.Down(slot) || bgDown[slot] > 0 {
				return 0, false
			}
			return delayed(t, delayOf(srcPos, positions[slot])), true
		},
	}

	residual := make([]float64, n)
	secPath := core.EarSecondaryPath()
	pl, err := graph.Build(graph.Config{
		SampleRate: fs,
		Lookahead:  maxLead,
		Canceller: graph.CancellerParams{
			// The mesh legs are delay lines: the true response is a short
			// interpolation kernel at the lead plus the 3-tap secondary
			// path, so a short causal tail and a brisk step keep the filter
			// tracking the walking source instead of averaging over it.
			CausalTaps:    32,
			Mu:            0.35,
			SecondaryPath: secPath,
			LossAware:     true,
		},
		Reference:   ref,
		Ambient:     &graph.SliceAmbient{Local: earSig, Cup: earSig},
		SecondaryIR: secPath,
		Residual:    residual,
		Trace:       sc.Trace,
		Telemetry:   sc.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	if err := pl.Run(n, 512); err != nil {
		return nil, err
	}

	var resPow, priPow float64
	for t := n / 2; t < n; t++ {
		resPow += residual[t] * residual[t]
		priPow += earSig[t] * earSig[t]
	}
	db := 10 * math.Log10((resPow+1e-12)/(priPow+1e-12))
	return &MeshResult{
		ResidualDB:     db,
		Report:         sup.Report(),
		MaxLeadSamples: maxLead,
		FaultEvents:    inj.Events(),
	}, nil
}
