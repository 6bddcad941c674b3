package headphone

import (
	"math"
	"slices"
	"testing"

	"mute/internal/audio"
	"mute/internal/dsp"
)

const fs = 8000.0

var secPath = []float64{0.8, 0.25, 0.05}

// TestConfigValidate checks the product's tuning constants are a valid
// filter and NewANC accepts them at the test rate, but refuses a sample
// rate with no room for the anti-noise band.
func TestConfigValidate(t *testing.T) {
	if Taps <= 0 || Mu <= 0 || AntiNoiseCutoffHz <= 0 || AntiNoiseCutoffHz >= fs/2 {
		t.Errorf("tuning constants Taps %d, Mu %g, cutoff %g Hz do not make a valid filter at %g Hz",
			Taps, Mu, float64(AntiNoiseCutoffHz), fs)
	}
	if _, err := NewANC(fs, secPath); err != nil {
		t.Errorf("default canceller refused: %v", err)
	}
	for _, rate := range []float64{0, -fs, 2 * AntiNoiseCutoffHz} {
		if _, err := NewANC(rate, secPath); err == nil {
			t.Errorf("sample rate %g should error", rate)
		}
	}
}

// TestHeadphoneConstructorErrors checks NewANC refuses an empty secondary
// path.
func TestHeadphoneConstructorErrors(t *testing.T) {
	for _, sec := range [][]float64{nil, {}} {
		if _, err := NewANC(fs, sec); err == nil {
			t.Errorf("empty secondary path %v should error", sec)
		}
	}
}

// runBaseline simulates the headphone on a generator: reference and error
// mics are essentially co-located (reference leads by refLead samples).
func runBaseline(t *testing.T, h *ANC, gen audio.Generator, n int) (residual, primary []float64) {
	t.Helper()
	// Primary path: noise reaches the error mic with slight multipath.
	priCh := dsp.NewStreamConvolver([]float64{0, 1.0, 0.3})
	secCh := dsp.NewStreamConvolver(secPath)
	e := 0.0
	for i := 0; i < n; i++ {
		x := gen.Next()
		a := h.Step(x, e)
		d := priCh.Process(x)
		e = d + secCh.Process(a)
		residual = append(residual, e)
		primary = append(primary, d)
	}
	return residual, primary
}

func bandDB(t *testing.T, res, pri []float64, lo, hi float64) float64 {
	t.Helper()
	pr, err := dsp.WelchPSD(res[len(res)/2:], fs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := dsp.WelchPSD(pri[len(pri)/2:], fs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return dsp.DB((pr.BandPower(lo, hi) + dsp.EpsilonPower) / (pp.BandPower(lo, hi) + dsp.EpsilonPower))
}

func TestBaselineCancelsLowFrequencyHum(t *testing.T) {
	h, err := NewANC(fs, secPath)
	if err != nil {
		t.Fatal(err)
	}
	gen := audio.NewMachineHum(1, 120, fs, 0.5, 4)
	res, pri := runBaseline(t, h, gen, 60000)
	low := bandDB(t, res, pri, 80, 600)
	if low > -10 {
		t.Errorf("baseline hum cancellation = %.1f dB, want < -10", low)
	}
}

func TestBaselineFailsAboveOneKilohertz(t *testing.T) {
	// The defining limitation: on wide-band noise the baseline gets little
	// or no cancellation above 1 kHz.
	h, err := NewANC(fs, secPath)
	if err != nil {
		t.Fatal(err)
	}
	gen := audio.NewWhiteNoise(2, fs, 0.5)
	res, pri := runBaseline(t, h, gen, 60000)
	low := bandDB(t, res, pri, 100, 900)
	high := bandDB(t, res, pri, 1500, 3800)
	if high < -6 {
		t.Errorf("baseline should not cancel much above 1 kHz, got %.1f dB", high)
	}
	if low >= high {
		t.Errorf("baseline low band (%.1f dB) should beat high band (%.1f dB)", low, high)
	}
	// It must not amplify the high band badly either (stability).
	if high > 3 {
		t.Errorf("baseline amplifies high band: %.1f dB", high)
	}
}

func TestBaselineResetRepeatable(t *testing.T) {
	h, err := NewANC(fs, secPath)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := runBaseline(t, h, audio.NewWhiteNoise(3, fs, 0.5), 4000)
	h.Reset()
	r2, _ := runBaseline(t, h, audio.NewWhiteNoise(3, fs, 0.5), 4000)
	for i := range r1 {
		if math.Abs(r1[i]-r2[i]) > 1e-12 {
			t.Fatal("reset run should reproduce exactly")
		}
	}
}

// gainDB is the magnitude response of FIR taps h at fHz, in dB.
func gainDB(h []float64, fHz float64) float64 {
	omega := 2 * math.Pi * fHz / fs
	var re, im float64
	for n, v := range h {
		re += v * math.Cos(omega*float64(n))
		im -= v * math.Sin(omega*float64(n))
	}
	return 20 * math.Log10(math.Hypot(re, im))
}

func TestPassiveIsolationCurve(t *testing.T) {
	h, err := PassiveIsolation(fs, DefaultPassiveTaps)
	if err != nil {
		t.Fatal(err)
	}
	g200, g1k, g3500 := gainDB(h, 200), gainDB(h, 1000), gainDB(h, 3500)
	if !(g200 > g1k && g1k > g3500) {
		t.Errorf("passive attenuation should grow with frequency: %0.1f, %0.1f, %0.1f dB", g200, g1k, g3500)
	}
	if g3500 > -9 {
		t.Errorf("passive attenuation at 3.5 kHz = %.1f dB, want < -9", g3500)
	}
	if g200 < -4 {
		t.Errorf("passive attenuation at 200 Hz = %.1f dB, want > -4 (nearly transparent)", g200)
	}
}

func TestPassiveIsolationErrors(t *testing.T) {
	if _, err := PassiveIsolation(0, 129); err == nil {
		t.Error("zero rate should error")
	}
	if _, err := PassiveIsolation(fs, 4); err == nil {
		t.Error("too few taps should error")
	}
}

// TestHeadphoneCancelsToneThroughSecondaryPath is single-frequency
// feedforward ANC with an identified secondary path: the residual at the
// error mic should drop well below the uncanceled level.
func TestHeadphoneCancelsToneThroughSecondaryPath(t *testing.T) {
	primary := []float64{0, 0, 0.9, 0.3, -0.1} // noise → error mic
	secondary := []float64{0.7, 0.25, 0.1}     // speaker → error mic
	h, err := NewANC(fs, secondary)
	if err != nil {
		t.Fatal(err)
	}
	priCh := dsp.NewStreamConvolver(primary)
	secCh := dsp.NewStreamConvolver(secondary)
	tone := audio.NewTone(400, fs, 0.5, 0)
	var uncanceled, residual, e float64
	const n = 24000
	for i := 0; i < n; i++ {
		x := tone.Next()
		a := h.Step(x, e)
		d := priCh.Process(x)
		e = d + secCh.Process(a)
		if i >= n-4000 {
			uncanceled += d * d
			residual += e * e
		}
	}
	if gain := dsp.DB(residual / uncanceled); gain > -20 {
		t.Errorf("tone cancellation = %.1f dB, want < -20 dB", gain)
	}
}

// TestHeadphoneLeakStable drives the canceller with an error uncorrelated
// with its reference: the leak must keep the weights bounded.
func TestHeadphoneLeakStable(t *testing.T) {
	h, err := NewANC(fs, []float64{0.8, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := audio.NewRNG(5)
	for i := 0; i < 20000; i++ {
		h.Step(rng.Uniform(), rng.Uniform())
	}
	for _, w := range h.lanc.Weights() {
		if math.IsNaN(w) || math.Abs(w) > 100 {
			t.Fatalf("leaky headphone weight diverged: %g", w)
		}
	}
}

// TestHeadphoneWarmStartRoundTrip checks WarmStart loads the weights it is
// handed — zero-padded when short, truncated when long — and Reset clears
// them.
func TestHeadphoneWarmStartRoundTrip(t *testing.T) {
	h, err := NewANC(fs, secPath)
	if err != nil {
		t.Fatal(err)
	}
	ramp := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(i+1) / 10
		}
		return w
	}
	for _, tc := range []struct{ in, want []float64 }{
		{ramp(Taps), ramp(Taps)},
		{ramp(2), append(ramp(2), make([]float64, Taps-2)...)},
		{ramp(Taps + 6), ramp(Taps)},
	} {
		h.WarmStart(tc.in)
		if got := h.lanc.Weights(); !slices.Equal(got, tc.want) {
			t.Fatalf("WarmStart(%d taps) loaded %v, want %v", len(tc.in), got, tc.want)
		}
	}
	h.Reset()
	for _, w := range h.lanc.Weights() {
		if w != 0 {
			t.Fatal("reset should zero weights")
		}
	}
}

// TestHeadphoneStepAllocatesNothing pins the conventional-ANC per-sample
// loop (the Bose baselines' and the FALLBACK rung's inner loop): Step and
// Emit must not allocate in steady state.
func TestHeadphoneStepAllocatesNothing(t *testing.T) {
	h, err := NewANC(fs, []float64{0.85, 0.22, 0.06})
	if err != nil {
		t.Fatal(err)
	}
	i, e := 0, 0.0
	if n := testing.AllocsPerRun(200, func() {
		x := float64(i%17)*0.05 - 0.4
		e = 0.01 * (x - h.Step(x, e))
		h.Emit(x)
		i++
	}); n != 0 {
		t.Errorf("headphone step allocated %.1f times per run", n)
	}
}

func BenchmarkHeadphoneStep(b *testing.B) {
	h, err := NewANC(fs, []float64{0.7, 0.2, 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	e := 0.0
	for i := 0; i < b.N; i++ {
		a := h.Step(0.5, e)
		e = 0.1 - a*0.01
	}
}

// TestPrefilterMatchesPerSample checks that announcing blocks through
// Prefilter leaves the headphone canceller's Step and Emit outputs bit for
// bit unchanged, across a Reset in the middle of an announced block.
func TestPrefilterMatchesPerSample(t *testing.T) {
	sec := []float64{0.7, 0.2, -0.1, 0.05}
	pre, err := NewANC(8000, sec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewANC(8000, sec)
	if err != nil {
		t.Fatal(err)
	}
	rng := audio.NewRNG(4)
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 0.3 * rng.Norm()
	}
	const block = 80
	eP, eR := 0.0, 0.0
	for i, x := range xs {
		if i%block == 0 {
			pre.Prefilter(xs[i:min(i+block, len(xs))])
		}
		if i == 1234 {
			pre.Reset()
			ref.Reset()
		}
		var aP, aR float64
		if i%500 < 50 {
			aP, aR = pre.Emit(x), ref.Emit(x)
		} else {
			aP, aR = pre.Step(x, eP), ref.Step(x, eR)
		}
		if math.Float64bits(aP) != math.Float64bits(aR) {
			t.Fatalf("sample %d: prefiltered %v != per-sample %v", i, aP, aR)
		}
		eP = 0.8*x + aP
		eR = 0.8*x + aR
	}
}
