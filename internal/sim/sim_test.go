package sim

import (
	"math"
	"testing"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/core"
)

const fs = 8000.0

func whiteScene(seed uint64) Scene {
	return DefaultScene(audio.NewWhiteNoise(seed, fs, 0.5))
}

func TestSceneValidate(t *testing.T) {
	s := whiteScene(1)
	if err := s.Validate(); err != nil {
		t.Errorf("default scene invalid: %v", err)
	}
	cases := []func(*Scene){
		func(s *Scene) { s.Sources = nil },
		func(s *Scene) { s.Sources[0].Pos = acoustics.Point{X: 99} },
		func(s *Scene) { s.Sources[0].Gen = nil },
		func(s *Scene) { s.Sources[0].Gen = audio.NewSilence(44100) },
		func(s *Scene) { s.RelayPos = acoustics.Point{X: -1} },
		func(s *Scene) { s.EarPos = acoustics.Point{Y: 99} },
		func(s *Scene) { s.Room.Absorption = 0 },
	}
	for i, mutate := range cases {
		bad := whiteScene(1)
		// Deep-copy sources so mutations do not leak between cases.
		bad.Sources = append([]Source(nil), bad.Sources...)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestSceneLookahead(t *testing.T) {
	s := whiteScene(1)
	la := s.LookaheadSamples()
	// Source→ear ≈ 3.5 m, source→relay = 0.5 m: Δ = 3 m ≈ 8.8 ms ≈ 70
	// samples at 8 kHz.
	if la < 60 || la > 80 {
		t.Errorf("lookahead = %d samples, want ≈ 70", la)
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		MUTEHollow:  "MUTE_Hollow",
		MUTEPassive: "MUTE+Passive",
		BoseActive:  "Bose_Active",
		BoseOverall: "Bose_Overall",
		PassiveOnly: "Passive_Only",
		Scheme(42):  "Scheme(42)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestRunValidatesParams(t *testing.T) {
	p := DefaultParams(whiteScene(1))
	p.Duration = 0
	if _, err := Run(p, MUTEHollow); err == nil {
		t.Error("zero duration should error")
	}
	p = DefaultParams(whiteScene(1))
	p.CausalTaps = 0
	if _, err := Run(p, MUTEHollow); err == nil {
		t.Error("zero causal taps should error")
	}
	p = DefaultParams(whiteScene(1))
	p.Mu = 0
	if _, err := Run(p, MUTEHollow); err == nil {
		t.Error("zero mu should error")
	}
	p = DefaultParams(whiteScene(1))
	p.ExtraReferenceDelay = -1
	if _, err := Run(p, MUTEHollow); err == nil {
		t.Error("negative extra delay should error")
	}
	p = DefaultParams(Scene{})
	if _, err := Run(p, MUTEHollow); err == nil {
		t.Error("invalid scene should error")
	}
}

func TestMUTEHollowCancelsWideband(t *testing.T) {
	p := DefaultParams(whiteScene(1))
	r, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if full > -6 {
		t.Errorf("MUTE_Hollow full-band cancellation = %.1f dB, want < -6", full)
	}
	high, err := r.CancellationDB(1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if high > -4 {
		t.Errorf("MUTE_Hollow must cancel above 1 kHz too, got %.1f dB", high)
	}
	if r.UsedNonCausalTaps == 0 {
		t.Error("MUTE_Hollow should have run with non-causal taps")
	}
	if !r.Budget.DeadlineMet {
		t.Error("the default scene provides ample lookahead; deadline should be met")
	}
}

func TestBoseActiveLowFrequencyOnly(t *testing.T) {
	// The defining headphone behaviour (Figure 12): active gain below
	// 1 kHz, essentially none above.
	p := DefaultParams(whiteScene(1))
	r, err := Run(p, BoseActive)
	if err != nil {
		t.Fatal(err)
	}
	low, err := r.ActiveGainDB(50, 1000)
	if err != nil {
		t.Fatal(err)
	}
	high, err := r.ActiveGainDB(1500, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if low > -2 {
		t.Errorf("Bose active low-band gain = %.1f dB, want < -2", low)
	}
	if high < -2 {
		t.Errorf("Bose active high-band gain = %.1f dB, should be ~0 (no cancellation)", high)
	}
	if low >= high {
		t.Errorf("Bose active: low band (%.1f) should beat high band (%.1f)", low, high)
	}
}

func TestSchemeOrderingMatchesPaper(t *testing.T) {
	// Figure 12's ordering: MUTE+Passive best; Bose_Overall and
	// MUTE_Hollow comparable (within a few dB); passive alone worst of
	// the covered-ear schemes.
	get := func(s Scheme) float64 {
		p := DefaultParams(whiteScene(1))
		r, err := Run(p, s)
		if err != nil {
			t.Fatal(err)
		}
		db, err := r.CancellationDB(50, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	mutePassive := get(MUTEPassive)
	boseOverall := get(BoseOverall)
	muteHollow := get(MUTEHollow)
	passiveOnly := get(PassiveOnly)
	if mutePassive >= boseOverall {
		t.Errorf("MUTE+Passive (%.1f) should beat Bose_Overall (%.1f)", mutePassive, boseOverall)
	}
	if mutePassive > boseOverall-5 {
		t.Errorf("MUTE+Passive should beat Bose_Overall clearly, got %.1f vs %.1f", mutePassive, boseOverall)
	}
	if math.Abs(muteHollow-boseOverall) > 6 {
		t.Errorf("MUTE_Hollow (%.1f) should be comparable to Bose_Overall (%.1f)", muteHollow, boseOverall)
	}
	if boseOverall >= passiveOnly+0.5 && boseOverall > passiveOnly {
		t.Errorf("Bose_Overall (%.1f) should not be worse than passive alone (%.1f)", boseOverall, passiveOnly)
	}
}

func TestShorterLookaheadDegrades(t *testing.T) {
	// Figure 16: injecting delay into the reference shrinks lookahead and
	// hurts cancellation.
	run := func(extra int) float64 {
		p := DefaultParams(whiteScene(1))
		p.ExtraReferenceDelay = extra
		r, err := Run(p, MUTEHollow)
		if err != nil {
			t.Fatal(err)
		}
		db, err := r.CancellationDB(50, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	fullLA := run(0)
	reduced := run(60) // leaves ~10 samples of lookahead
	none := run(80)    // negative lookahead: budget clamps to 0
	if !(fullLA < reduced && reduced < none) {
		t.Errorf("cancellation should degrade with shrinking lookahead: %.1f, %.1f, %.1f", fullLA, reduced, none)
	}
}

func TestFMLinkEndToEnd(t *testing.T) {
	// The full FM chain should still deliver solid cancellation.
	p := DefaultParams(whiteScene(1))
	p.Duration = 6
	p.UseFMLink = true
	r, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	db, err := r.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if db > -5 {
		t.Errorf("MUTE over FM link = %.1f dB, want < -5", db)
	}
}

func TestResultRecordingsConsistent(t *testing.T) {
	p := DefaultParams(whiteScene(2))
	p.Duration = 4
	r, err := Run(p, MUTEPassive)
	if err != nil {
		t.Fatal(err)
	}
	n := int(p.Duration * fs)
	if len(r.Open) != n || len(r.Off) != n || len(r.On) != n || len(r.Residual) != n {
		t.Fatal("recording lengths mismatch")
	}
	// Off (under cup) must be quieter than Open.
	if pOff, pOpen := power(r.Off), power(r.Open); pOff >= pOpen {
		t.Errorf("under-cup power %g should be below open power %g", pOff, pOpen)
	}
	if r.SampleRate != fs {
		t.Error("sample rate mismatch")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() []float64 {
		p := DefaultParams(whiteScene(3))
		p.Duration = 2
		r, err := Run(p, MUTEHollow)
		if err != nil {
			t.Fatal(err)
		}
		return r.On
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed runs should be bit-identical")
		}
	}
}

func TestPassiveOnlyScheme(t *testing.T) {
	p := DefaultParams(whiteScene(4))
	p.Duration = 4
	r, err := Run(p, PassiveOnly)
	if err != nil {
		t.Fatal(err)
	}
	low, err := r.CancellationDB(50, 500)
	if err != nil {
		t.Fatal(err)
	}
	high, err := r.CancellationDB(2000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if high >= low {
		t.Errorf("passive cup should attenuate high (%.1f) more than low (%.1f)", high, low)
	}
	act, err := r.ActiveGainDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(act) > 1e-9 {
		t.Errorf("PassiveOnly active gain = %g dB, want 0", act)
	}
}

func TestTransducerResponseShape(t *testing.T) {
	tr, err := NewTransducer(fs)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 13: weak below ~100 Hz, healthy in the mid band.
	if lo, mid := tr.Response(60, fs), tr.Response(1000, fs); lo > 0.5*mid {
		t.Errorf("transducer should be weak at 60 Hz: %g vs %g", lo, mid)
	}
	ir := tr.ImpulseResponse(32)
	if len(ir) != 32 {
		t.Fatal("impulse response length")
	}
	// Repeatability after reset.
	ir2 := tr.ImpulseResponse(32)
	for i := range ir {
		if ir[i] != ir2[i] {
			t.Fatal("impulse response should be repeatable")
		}
	}
}

func TestTwoSourceScene(t *testing.T) {
	// Profiling experiment setup (Figure 17): background noise plus an
	// intermittent talker from another position must simulate cleanly.
	sc := whiteScene(5)
	sc.Sources[0].Gen = audio.NewWhiteNoise(5, fs, 0.15)
	sc.Sources = append(sc.Sources, Source{
		Pos: acoustics.Point{X: 0.7, Y: 3.2, Z: 1.5},
		Gen: audio.NewSpeech(6, audio.MaleVoice, fs, 0.8),
	})
	p := DefaultParams(sc)
	p.Duration = 6
	p.Profiling = true
	r, err := Run(p, MUTEHollow)
	if err != nil {
		t.Fatal(err)
	}
	db, err := r.CancellationDB(50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if db > 0 {
		t.Errorf("two-source profiled run should not amplify, got %.1f dB", db)
	}
}

func power(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s / float64(len(x))
}

func BenchmarkSimMUTEHollowSecond(b *testing.B) {
	b.ReportAllocs()
	var samples, seconds float64
	for i := 0; i < b.N; i++ {
		p := DefaultParams(whiteScene(1))
		p.Duration = 1
		r, err := Run(p, MUTEHollow)
		if err != nil {
			b.Fatal(err)
		}
		samples += float64(len(r.On))
		seconds += float64(len(r.On)) / r.SampleRate
	}
	if wall := b.Elapsed().Seconds(); wall > 0 {
		b.ReportMetric(samples/wall, "samples/s")
		b.ReportMetric(seconds/wall, "xrealtime")
	}
}

// TestBoseOverallBitsPinned holds a Bose_Overall run's residual to the
// exact bits it had when the Bose branch of Run stepped headphone.ANC by
// hand, with and without error-microphone self-noise.
func TestBoseOverallBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		rms           float64
		pow, last, on uint64
	}{
		{0, 0x403b1adfc76d75fe, 0xbf9bfb2bb5f68a3c, 0xbf9bfb2bb5f68a3c},
		{1e-3, 0x403b1fb20e63e646, 0xbf9d64766b012e02, 0xbf9c201edb4dbe54},
	} {
		p := DefaultParams(whiteScene(3))
		p.Duration = 2
		p.EarMicNoiseRMS = tc.rms
		r, err := Run(p, BoseOverall)
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
		if r.BudgetSpend != nil || r.Budget != (core.Budget{}) || r.UsedNonCausalTaps != 0 {
			t.Errorf("rms %g: the Bose run reports a lookahead budget: %+v, %d taps", tc.rms, r.Budget, r.UsedNonCausalTaps)
		}
	}
}
