package audio

import (
	"math"
	"testing"
	"testing/quick"

	"mute/internal/dsp"
)

const testRate = 8000.0

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestRNGUniformMeanProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += r.Uniform()
		}
		return math.Abs(sum/n) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn(5) visited %d values, want 5", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestWhiteNoiseStats(t *testing.T) {
	g := NewWhiteNoise(1, testRate, 0.5)
	x := Render(g, 20000)
	if math.Abs(meanOf(x)) > 0.02 {
		t.Errorf("white noise mean = %g", meanOf(x))
	}
	for _, v := range x {
		if v > 0.5 || v < -0.5 {
			t.Fatalf("amplitude bound violated: %g", v)
		}
	}
	if g.SampleRate() != testRate {
		t.Error("sample rate mismatch")
	}
}

func TestWhiteNoiseDeterminism(t *testing.T) {
	a := Render(NewWhiteNoise(5, testRate, 1), 100)
	b := Render(NewWhiteNoise(5, testRate, 1), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed white noise diverged")
		}
	}
}

func TestBandLimitedNoiseSpectrum(t *testing.T) {
	g, err := NewBandLimitedNoise(2, testRate, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	x := Render(g, 32768)
	psd, err := dsp.WelchPSD(x, testRate, 1024)
	if err != nil {
		t.Fatal(err)
	}
	inBand := psd.BandPower(0, 1000)
	outBand := psd.BandPower(2000, 4000)
	if inBand < 20*outBand {
		t.Errorf("band-limited noise leaks: in=%g out=%g", inBand, outBand)
	}
	if _, err := NewBandLimitedNoise(2, testRate, 1, 8000); err == nil {
		t.Error("cutoff above Nyquist should error")
	}
}

func TestPinkNoiseTilt(t *testing.T) {
	g := NewPinkNoise(3, testRate, 1)
	x := Render(g, 65536)
	psd, err := dsp.WelchPSD(x, testRate, 2048)
	if err != nil {
		t.Fatal(err)
	}
	low := psd.BandPower(50, 400)
	high := psd.BandPower(2000, 3600)
	if low < 2*high {
		t.Errorf("pink noise should tilt low: low=%g high=%g", low, high)
	}
}

func TestToneFrequency(t *testing.T) {
	g := NewTone(1000, testRate, 0.8, 0)
	x := Render(g, 8192)
	psd, err := dsp.WelchPSD(x, testRate, 1024)
	if err != nil {
		t.Fatal(err)
	}
	in := psd.BandPower(950, 1050)
	if in < 0.9*psd.BandPower(0, math.Inf(1)) {
		t.Error("tone energy not concentrated at 1 kHz")
	}
	// RMS of a sinusoid is amp/sqrt(2).
	if r := math.Sqrt(dsp.Power(x)); math.Abs(r-0.8/math.Sqrt2) > 0.01 {
		t.Errorf("tone RMS = %g", r)
	}
}

func TestMachineHumHarmonics(t *testing.T) {
	g := NewMachineHum(4, 120, testRate, 0.5, 8)
	x := Render(g, 32768)
	psd, err := dsp.WelchPSD(x, testRate, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Fundamental band should clearly beat the gap between harmonics.
	fund := psd.BandPower(110, 130)
	gap := psd.BandPower(160, 220)
	if fund < 5*gap {
		t.Errorf("hum fundamental weak: fund=%g gap=%g", fund, gap)
	}
}

func TestConstructionNoiseImpulsive(t *testing.T) {
	g := NewConstructionNoise(5, testRate, 0.8)
	x := Render(g, 8*8000)
	// Kurtosis of impulsive noise is well above Gaussian (3).
	m := meanOf(x)
	var m2, m4 float64
	for _, v := range x {
		d := v - m
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= float64(len(x))
	m4 /= float64(len(x))
	kurt := m4 / (m2 * m2)
	if kurt < 4 {
		t.Errorf("construction noise kurtosis = %g, want > 4 (impulsive)", kurt)
	}
}

func TestSpeechIntermittency(t *testing.T) {
	g := NewSpeech(6, MaleVoice, testRate, 1)
	x := Render(g, 10*8000)
	// Count silent and active 100 ms frames.
	frame := 800
	var silent, active int
	for i := 0; i+frame <= len(x); i += frame {
		if dsp.Power(x[i:i+frame]) < 1e-8 {
			silent++
		} else {
			active++
		}
	}
	if silent == 0 {
		t.Error("speech should contain pauses")
	}
	if active == 0 {
		t.Error("speech should contain active frames")
	}
}

func TestContinuousSpeechHasNoPauses(t *testing.T) {
	g := NewContinuousSpeech(6, FemaleVoice, testRate, 1)
	x := Render(g, 5*8000)
	frame := 1600
	for i := 0; i+frame <= len(x); i += frame {
		if dsp.Power(x[i:i+frame]) < 1e-10 {
			t.Fatal("continuous speech should not contain 200 ms silences")
		}
	}
}

func TestVoicePitchDifference(t *testing.T) {
	// Female speech should carry more energy above 200 Hz relative to
	// below than male speech, by construction of the pitch ranges.
	male := Render(NewContinuousSpeech(7, MaleVoice, testRate, 1), 8*8000)
	female := Render(NewContinuousSpeech(7, FemaleVoice, testRate, 1), 8*8000)
	mp, err := dsp.WelchPSD(male, testRate, 2048)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := dsp.WelchPSD(female, testRate, 2048)
	if err != nil {
		t.Fatal(err)
	}
	mRatio := mp.BandPower(60, 160) / (mp.BandPower(0, math.Inf(1)) + 1e-12)
	fRatio := fp.BandPower(60, 160) / (fp.BandPower(0, math.Inf(1)) + 1e-12)
	if mRatio <= fRatio {
		t.Errorf("male low-pitch fraction %g should exceed female %g", mRatio, fRatio)
	}
	if MaleVoice.String() != "male" || FemaleVoice.String() != "female" {
		t.Error("voice names")
	}
}

func TestMusicSpectrumWideband(t *testing.T) {
	g := NewMusic(8, testRate, 1, 3)
	x := Render(g, 10*8000)
	psd, err := dsp.WelchPSD(x, testRate, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if psd.BandPower(200, 1000) <= 0 {
		t.Error("music should have low-mid energy")
	}
	if psd.BandPower(1000, 3000) <= 0 {
		t.Error("music should have high-mid energy")
	}
	if math.Sqrt(dsp.Power(x)) < 1e-3 {
		t.Error("music should not be silent")
	}
}

func TestBabbleIsDenserThanOneTalker(t *testing.T) {
	one := Render(NewSpeech(9, MaleVoice, testRate, 1), 8*8000)
	many := Render(NewBabble(9, 4, testRate, 1), 8*8000)
	frame := 800
	count := func(x []float64) int {
		var silent int
		for i := 0; i+frame <= len(x); i += frame {
			if dsp.Power(x[i:i+frame]) < 1e-8 {
				silent++
			}
		}
		return silent
	}
	if count(many) > count(one) {
		t.Error("4-talker babble should have fewer silent frames than one talker")
	}
}

func TestSliceSource(t *testing.T) {
	s := NewSliceSource([]float64{1, 2, 3}, testRate, false)
	got := Render(s, 5)
	want := []float64{1, 2, 3, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("non-looping slice: got %v", got)
		}
	}
	s2 := NewSliceSource([]float64{1, 2}, testRate, true)
	got2 := Render(s2, 5)
	want2 := []float64{1, 2, 1, 2, 1}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Fatalf("looping slice: got %v", got2)
		}
	}
	empty := NewSliceSource(nil, testRate, true)
	if empty.Next() != 0 {
		t.Error("empty slice source should emit 0")
	}
}

func meanOf(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}
