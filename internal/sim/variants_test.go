package sim

import (
	"math"
	"testing"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/core"
)

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		WallRelay:  "WallRelay",
		Tabletop:   "Tabletop",
		SmartNoise: "SmartNoise",
		Variant(9): "Variant(9)",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestSmartNoiseMaximizesLookahead(t *testing.T) {
	base := DefaultParams(whiteScene(1))
	base.Duration = 6
	wall, err := RunVariant(VariantParams{Base: base, Variant: WallRelay})
	if err != nil {
		t.Fatal(err)
	}
	base2 := DefaultParams(whiteScene(1))
	base2.Duration = 6
	smart, err := RunVariant(VariantParams{Base: base2, Variant: SmartNoise})
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
		r, err := RunVariant(VariantParams{Base: base, Variant: Tabletop, ControlLoopDelaySamples: loop})
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
	if _, err := RunVariant(VariantParams{Base: base, Variant: Tabletop, ControlLoopDelaySamples: -1}); err == nil {
		t.Error("negative loop delay should error")
	}
	bad := base
	bad.Duration = 0
	if _, err := RunVariant(VariantParams{Base: bad, Variant: Tabletop}); err == nil {
		t.Error("zero duration should error")
	}
	if _, err := RunVariant(VariantParams{Base: base, Variant: Variant(42)}); err == nil {
		t.Error("unknown variant should error")
	}
}

func TestRunMobileTracksMovingEar(t *testing.T) {
	base := DefaultParams(whiteScene(4))
	base.Duration = 6
	r, err := RunMobile(MobilityParams{
		Base:   base,
		EarEnd: acoustics.Point{X: 3.6, Y: 2.4, Z: 1.2}, // ~0.6 m drift
	})
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

func TestRunMobileErrors(t *testing.T) {
	base := DefaultParams(whiteScene(5))
	if _, err := RunMobile(MobilityParams{Base: base, EarEnd: acoustics.Point{X: 99}}); err == nil {
		t.Error("endpoint outside room should error")
	}
	bad := base
	bad.Duration = 0
	if _, err := RunMobile(MobilityParams{Base: bad, EarEnd: base.Scene.EarPos}); err == nil {
		t.Error("zero duration should error")
	}
	bad2 := DefaultParams(Scene{})
	if _, err := RunMobile(MobilityParams{Base: bad2, EarEnd: base.Scene.EarPos}); err == nil {
		t.Error("invalid scene should error")
	}
}

func TestRunMobileStationaryMatchesStaticClosely(t *testing.T) {
	// Degenerate path (start == end) should behave like the static run.
	base := DefaultParams(DefaultScene(audio.NewWhiteNoise(6, fs, 0.5)))
	base.Duration = 4
	r, err := RunMobile(MobilityParams{Base: base, EarEnd: base.Scene.EarPos})
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

// TestRunMobileBitsPinned holds a moving-ear run's residual to the exact
// bits it had when RunMobile stepped its own LANC loop, with and without
// error-microphone self-noise (the graph draws the noise only when its
// RMS is non-zero).
func TestRunMobileBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		rms           float64
		pow, last, on uint64
	}{
		{0, 0x406000a8f4409596, 0xbfa9d090717682c4, 0xbfa9d090717682c4},
		{1e-3, 0x406001b27e78e296, 0xbfaa895c3dfeb0f9, 0xbfa9e7307624f922},
	} {
		base := DefaultParams(whiteScene(4))
		base.Duration = 2
		base.EarMicNoiseRMS = tc.rms
		r, err := RunMobile(MobilityParams{Base: base, EarEnd: acoustics.Point{X: 3.6, Y: 2.4, Z: 1.2}})
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

// TestTabletopBitsPinned holds a Tabletop run's residual to the exact bits
// it had when runTabletop stepped its own LANC loop behind a hand-built
// error delay line, with and without error-microphone self-noise. The
// odd control loop splits unevenly (4 samples down, 5 up), so the
// downlink's secondary-path delay and the uplink's error delay are
// distinguishable.
func TestTabletopBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		rms           float64
		pow, last, on uint64
	}{
		{0, 0x404f32109e0f3538, 0xbf9b806917e2ec3a, 0xbf9b806917e2ec3a},
		{1e-3, 0x404f36d4b554d411, 0xbf9d0ee2efc71d48, 0xbf9bca8b6013ad9a},
	} {
		base := DefaultParams(whiteScene(2))
		base.Duration = 2
		base.EarMicNoiseRMS = tc.rms
		r, err := RunVariant(VariantParams{Base: base, Variant: Tabletop, ControlLoopDelaySamples: 9})
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
