package sim

import (
	"errors"
	"math"
	"testing"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/graph"
	"mute/internal/stream"
	"mute/internal/supervisor"
)

func TestSmartNoiseMaximizesLookahead(t *testing.T) {
	base := DefaultParams(whiteScene(1))
	base.Duration = 6
	wall, err := Run(base, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	base2 := DefaultParams(whiteScene(1))
	base2.Duration = 6
	base2.Scene = base2.Scene.RelayOnSource()
	smart, err := Run(base2, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	if smart.LookaheadSamples <= wall.LookaheadSamples {
		t.Errorf("smart-noise lookahead %d should exceed wall relay %d",
			smart.LookaheadSamples, wall.LookaheadSamples)
	}
	db, err := smart.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if db > -6 {
		t.Errorf("smart-noise cancellation = %.1f dB, want < -6", db)
	}
}

func TestTabletopControlLoopCostsCancellation(t *testing.T) {
	run := func(loop int) float64 {
		base := DefaultParams(whiteScene(2))
		base.Duration = 6
		base.ControlLoopDelaySamples = loop
		r, err := Run(base, MUTEHollow)
		if err != nil {
			t.Fatal(err)
		}
		db, err := r.CancellationDB(50, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	tight := run(2)
	loose := run(40)
	if tight > -6 {
		t.Errorf("tabletop with tight loop = %.1f dB, want < -6", tight)
	}
	// A large control loop consumes lookahead and delays feedback; with
	// correctly paired stale errors the penalty is small, but it must not
	// materially outperform the tight loop.
	if loose < tight-1.5 {
		t.Errorf("loose loop (%.1f dB) should not beat tight loop (%.1f dB) by > 1.5 dB", loose, tight)
	}
}

func TestTabletopErrors(t *testing.T) {
	base := DefaultParams(whiteScene(3))
	base.ControlLoopDelaySamples = -1
	if _, err := Run(base, MUTEHollow); err == nil {
		t.Error("negative loop delay should error")
	}
	bad := DefaultParams(whiteScene(3))
	bad.ControlLoopDelaySamples = 8
	bad.Duration = 0
	if _, err := Run(bad, MUTEHollow); err == nil {
		t.Error("zero duration should error")
	}
}

// TestTabletopRefusals pins the combinations the control loop's stale
// error cannot join: graph.Build refuses each with ErrUnsupported.
func TestTabletopRefusals(t *testing.T) {
	for name, tc := range map[string]struct {
		scheme Scheme
		mod    func(*Params)
	}{
		"supervise":    {MUTEHollow, func(p *Params) { p.Supervise = true }},
		"block fdaf":   {MUTEHollow, func(p *Params) { p.BlockFDAF = true }},
		"bose active":  {BoseActive, func(*Params) {}},
		"bose overall": {BoseOverall, func(*Params) {}},
	} {
		p := DefaultParams(whiteScene(3))
		p.Duration = 0.1
		p.ControlLoopDelaySamples = 8
		tc.mod(&p)
		if _, err := Run(p, tc.scheme); !errors.Is(err, graph.ErrUnsupported) {
			t.Errorf("Tabletop + %s: err = %v, want graph.ErrUnsupported", name, err)
		}
	}
}

// TestTabletopZeroLoopIsWallRelay holds a zero control loop to the wall
// relay's run bit for bit: the pins are the wall relay's residual power
// and last sample on this scene.
func TestTabletopZeroLoopIsWallRelay(t *testing.T) {
	p := DefaultParams(whiteScene(2))
	p.Duration = 1
	p.ControlLoopDelaySamples = 0
	r, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	var pow float64
	for _, v := range r.Residual {
		pow += v * v
	}
	if got, want := math.Float64bits(pow), uint64(0x4043286e962015b9); got != want {
		t.Errorf("residual power bits %#x, want the wall relay's %#x", got, want)
	}
	if got, want := math.Float64bits(r.Residual[len(r.Residual)-1]), uint64(0x3fc14082ace302db); got != want {
		t.Errorf("last residual bits %#x, want the wall relay's %#x", got, want)
	}
}

// TestEarEndAtStartIsStatic holds an EarEnd that does not move the ear to
// the static run bit for bit.
func TestEarEndAtStartIsStatic(t *testing.T) {
	static := DefaultParams(whiteScene(4))
	static.Duration = 1
	still := DefaultParams(whiteScene(4))
	still.Duration = 1
	still.EarEnd = &still.Scene.EarPos
	assertSameResidual(t, static, still)
}

// assertSameResidual runs both parameter sets on MUTE_Hollow and requires
// bit-identical residuals.
func assertSameResidual(t *testing.T, want, got Params) {
	t.Helper()
	a, err := Run(want, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(got, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Residual) != len(b.Residual) {
		t.Fatalf("residual lengths %d and %d", len(a.Residual), len(b.Residual))
	}
	for i := range a.Residual {
		if math.Float64bits(a.Residual[i]) != math.Float64bits(b.Residual[i]) {
			t.Fatalf("residual differs at %d: %v vs %v", i, b.Residual[i], a.Residual[i])
		}
	}
}

// TestTabletopOverLossyTransport composes the control loop with the
// packetized transport: the prime and the downlink both come out of the
// lookahead, and the run still cancels.
func TestTabletopOverLossyTransport(t *testing.T) {
	p := DefaultParams(whiteScene(2))
	p.Duration = 4
	p.ControlLoopDelaySamples = 8
	p.LossTransport = &LossTransport{
		Link:         stream.LossParams{Seed: 42, Loss: 0.05, MeanBurst: 2},
		FrameSamples: 40,
		PrimeFrames:  1,
		LossAware:    true,
	}
	r, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	if r.Transport == nil || r.Transport.Link.Dropped == 0 {
		t.Fatalf("transport stats %+v: want a lossy link", r.Transport)
	}
	// 70 samples of lookahead less the 4-sample pipeline, the 4-sample
	// downlink and the 40-sample prime.
	if r.Budget.UsableTaps != 22 {
		t.Errorf("usable taps %d, want 22", r.Budget.UsableTaps)
	}
	db, err := r.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(db) || db > -5 {
		t.Errorf("lossy Tabletop cancellation = %.1f dB, want < -5", db)
	}
}

func TestRunMobileTracksMovingEar(t *testing.T) {
	base := DefaultParams(whiteScene(4))
	base.Duration = 6
	base.EarEnd = &acoustics.Point{X: 3.6, Y: 2.4, Z: 1.2} // ~0.6 m drift
	r, err := Run(base, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	db, err := r.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if db > -3 {
		t.Errorf("mobile-ear cancellation = %.1f dB, want < -3 (tracking)", db)
	}
	// Mobility should cost something versus the static run.
	base.EarEnd = nil
	static, err := Run(base, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := static.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if db < sdb-1 {
		t.Errorf("moving ear (%.1f dB) should not beat static (%.1f dB)", db, sdb)
	}
}

// TestMovingEarUnderSupervision composes the moving ear with the
// degradation ladder: on a clean link the ladder stays in LANC, and the
// supervised run equals the unsupervised one bit for bit.
func TestMovingEarUnderSupervision(t *testing.T) {
	params := func(supervise bool) Params {
		p := DefaultParams(whiteScene(4))
		p.Duration = 2
		p.EarEnd = &acoustics.Point{X: 3.6, Y: 2.4, Z: 1.2}
		p.Supervise = supervise
		return p
	}
	r, err := Run(params(true), MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	if r.Supervision == nil || r.Supervision.FinalState != supervisor.StateLANC {
		t.Fatalf("supervision report %+v: want a run that ends in LANC", r.Supervision)
	}
	assertSameResidual(t, params(false), params(true))
}

func TestRunMobileErrors(t *testing.T) {
	base := DefaultParams(whiteScene(5))
	base.EarEnd = &acoustics.Point{X: 99}
	if _, err := Run(base, MUTEHollow); err == nil {
		t.Error("endpoint outside room should error")
	}
	bad := DefaultParams(whiteScene(5))
	bad.EarEnd = &acoustics.Point{X: 3.6, Y: 2.4, Z: 1.2}
	bad.Duration = 0
	if _, err := Run(bad, MUTEHollow); err == nil {
		t.Error("zero duration should error")
	}
	bad2 := DefaultParams(Scene{})
	bad2.EarEnd = &acoustics.Point{X: 3.6, Y: 2.4, Z: 1.2}
	if _, err := Run(bad2, MUTEHollow); err == nil {
		t.Error("invalid scene should error")
	}
}

func TestRunMobileStationaryMatchesStaticClosely(t *testing.T) {
	// Degenerate path (start == end) should behave like the static run.
	base := DefaultParams(DefaultScene(audio.NewWhiteNoise(6, fs, 0.5)))
	base.Duration = 4
	end := base.Scene.EarPos
	base.EarEnd = &end
	r, err := Run(base, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	db, err := r.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if db > -6 {
		t.Errorf("stationary mobile run = %.1f dB, want < -6", db)
	}
}

// TestRunMobileBitsPinned holds a moving-ear run's residual to exact bits,
// with and without error-microphone self-noise (the graph draws the noise
// only when its RMS is non-zero). The relay leg is Run's: the room render
// and the relay's analog capture (mic noise, anti-alias LPF, gain).
func TestRunMobileBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		rms           float64
		pow, last, on uint64
	}{
		{0, 0x405fee6982a6362b, 0xbfaad2a86b126ca0, 0xbfaad2a86b126ca0},
		{1e-3, 0x405ff0840a8174fd, 0xbfab8b17d360c4d3, 0xbfaae8ec0b870cfc},
	} {
		base := DefaultParams(whiteScene(4))
		base.Duration = 2
		base.EarMicNoiseRMS = tc.rms
		base.EarEnd = &acoustics.Point{X: 3.6, Y: 2.4, Z: 1.2}
		r, err := Run(base, MUTEHollow)
		if err != nil {
			t.Fatal(err)
		}
		var pow float64
		for _, v := range r.Residual {
			pow += v * v
		}
		n := len(r.Residual)
		if got := math.Float64bits(pow); got != tc.pow {
			t.Errorf("rms %g: residual power bits %#x, want %#x", tc.rms, got, tc.pow)
		}
		if got := math.Float64bits(r.Residual[n-1]); got != tc.last {
			t.Errorf("rms %g: last residual bits %#x, want %#x", tc.rms, got, tc.last)
		}
		if got := math.Float64bits(r.On[n-1]); got != tc.on {
			t.Errorf("rms %g: last measured bits %#x, want %#x", tc.rms, got, tc.on)
		}
		if r.LookaheadSamples != 70 || r.UsedNonCausalTaps != 32 || r.Budget.UsableTaps != 66 || !r.Budget.DeadlineMet {
			t.Errorf("rms %g: lookahead %d, taps %d, budget %+v; want 70, 32, 66 usable",
				tc.rms, r.LookaheadSamples, r.UsedNonCausalTaps, r.Budget)
		}
	}
}

// TestTabletopBitsPinned holds a Tabletop run's residual to exact bits,
// with and without error-microphone self-noise. The odd control loop
// splits unevenly (4 samples down, 5 up), so the downlink's
// secondary-path delay and the uplink's error delay are distinguishable.
// The relay leg is Run's: the room render and the relay's analog capture.
func TestTabletopBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		rms           float64
		pow, last, on uint64
	}{
		{0, 0x40505293ef9b08d5, 0xbf9bb61707af439e, 0xbf9bb61707af439e},
		{1e-3, 0x40505500fb6e8a4d, 0xbf9d41b68cab1106, 0xbf9bfd5efcf7a158},
	} {
		base := DefaultParams(whiteScene(2))
		base.Duration = 2
		base.EarMicNoiseRMS = tc.rms
		base.ControlLoopDelaySamples = 9
		r, err := Run(base, MUTEHollow)
		if err != nil {
			t.Fatal(err)
		}
		var pow float64
		for _, v := range r.Residual {
			pow += v * v
		}
		n := len(r.Residual)
		if got := math.Float64bits(pow); got != tc.pow {
			t.Errorf("rms %g: residual power bits %#x, want %#x", tc.rms, got, tc.pow)
		}
		if got := math.Float64bits(r.Residual[n-1]); got != tc.last {
			t.Errorf("rms %g: last residual bits %#x, want %#x", tc.rms, got, tc.last)
		}
		if got := math.Float64bits(r.On[n-1]); got != tc.on {
			t.Errorf("rms %g: last measured bits %#x, want %#x", tc.rms, got, tc.on)
		}
		want := core.PipelineDelays{ADC: 1, DSP: 1, DAC: 1, Speaker: 5}
		if r.LookaheadSamples != 70 || r.UsedNonCausalTaps != 32 || r.Budget.UsableTaps != 62 || r.Budget.Pipeline != want {
			t.Errorf("rms %g: lookahead %d, taps %d, budget %+v; want 70, 32, 62 usable over %+v",
				tc.rms, r.LookaheadSamples, r.UsedNonCausalTaps, r.Budget, want)
		}
	}
}
