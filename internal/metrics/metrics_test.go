package metrics

import (
	"math"
	"testing"

	"mute/internal/audio"
	"mute/internal/dsp"
)

const fs = 8000.0

func TestCancellationSpectrumKnownAttenuation(t *testing.T) {
	off := audio.Render(audio.NewWhiteNoise(1, fs, 0.5), 32768)
	on := make([]float64, len(off))
	for i, v := range off {
		on[i] = v * 0.1 // -20 dB across the board
	}
	cs, err := NewCancellationSpectrum(off, on, fs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	avg := cs.AverageDB(100, 3900)
	if math.Abs(avg+20) > 0.5 {
		t.Errorf("average cancellation = %.2f dB, want -20", avg)
	}
}

func TestCancellationSpectrumBandSelective(t *testing.T) {
	// Attenuate only below 1 kHz; the spectrum should show it.
	off := audio.Render(audio.NewWhiteNoise(2, fs, 0.5), 65536)
	lp, err := dsp.LowPassFIR(1000, fs, 101, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := dsp.HighPassFIR(1000, fs, 101, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	lowPart := dsp.ConvolveSame(off, lp)
	highPart := dsp.ConvolveSame(off, hp)
	on := make([]float64, len(off))
	for i := range on {
		on[i] = 0.05*lowPart[i] + highPart[i]
	}
	cs, err := NewCancellationSpectrum(off, on, fs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	low := cs.AverageDB(200, 800)
	high := cs.AverageDB(2000, 3500)
	if low > -15 {
		t.Errorf("low band = %.1f dB, want strong cancellation", low)
	}
	if high < -3 {
		t.Errorf("high band = %.1f dB, should be nearly untouched", high)
	}
}

func TestCancellationSpectrumErrors(t *testing.T) {
	if _, err := NewCancellationSpectrum(nil, []float64{1}, fs, 256); err == nil {
		t.Error("empty off should error")
	}
	if _, err := NewCancellationSpectrum([]float64{1}, nil, fs, 256); err == nil {
		t.Error("empty on should error")
	}
}

func TestBandTable(t *testing.T) {
	off := audio.Render(audio.NewWhiteNoise(3, fs, 0.5), 16384)
	on := make([]float64, len(off))
	for i, v := range off {
		on[i] = v * 0.5
	}
	cs, err := NewCancellationSpectrum(off, on, fs, 512)
	if err != nil {
		t.Fatal(err)
	}
	centers, vals := cs.BandTable(8, 4000)
	if len(centers) != 8 || len(vals) != 8 {
		t.Fatal("band table size mismatch")
	}
	if centers[0] != 250 || centers[7] != 3750 {
		t.Errorf("band centers wrong: %v", centers)
	}
	for b, v := range vals {
		if math.Abs(v+6.02) > 1.5 {
			t.Errorf("band %d = %.1f dB, want ≈ -6", b, v)
		}
	}
}

func TestResidualTimelineAndConvergence(t *testing.T) {
	// Construct an error signal that decays then settles.
	n := 16000
	e := make([]float64, n)
	rng := audio.NewRNG(4)
	for i := range e {
		level := 0.5 * math.Exp(-float64(i)/2000)
		if level < 0.01 {
			level = 0.01
		}
		e[i] = level * rng.Uniform()
	}
	rt, err := NewResidualTimeline(e, fs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Times) != n/400 {
		t.Fatalf("timeline windows = %d", len(rt.Times))
	}
	if rt.PowersDB[0] <= rt.PowersDB[len(rt.PowersDB)-1] {
		t.Error("residual should decay")
	}
}

func TestResidualTimelineErrors(t *testing.T) {
	if _, err := NewResidualTimeline(nil, fs, 100); err == nil {
		t.Error("empty input should error")
	}
	if _, err := NewResidualTimeline([]float64{1}, fs, 0); err == nil {
		t.Error("zero window should error")
	}
}

func TestAWeightShape(t *testing.T) {
	// A-weighting: ~0 dB at 1 kHz, strongly negative at 50 Hz, mildly
	// positive near 2-3 kHz.
	if g := 20 * math.Log10(AWeight(1000)); math.Abs(g) > 0.5 {
		t.Errorf("A-weight at 1 kHz = %.2f dB, want ≈ 0", g)
	}
	if g := 20 * math.Log10(AWeight(50)); g > -25 {
		t.Errorf("A-weight at 50 Hz = %.2f dB, want < -25", g)
	}
	if AWeight(2500) < AWeight(1000) {
		t.Error("A-weight should peak above 1 kHz")
	}
	if AWeight(0) != 0 || AWeight(-5) != 0 {
		t.Error("non-positive frequencies should weight 0")
	}
}

func TestAWeightedPowerPrefersMidband(t *testing.T) {
	low := audio.Render(audio.NewTone(60, fs, 0.5, 0), 16384)
	mid := audio.Render(audio.NewTone(1000, fs, 0.5, 0), 16384)
	pl, err := dsp.WelchPSD(low, fs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := dsp.WelchPSD(mid, fs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if AWeightedPower(pm) < 10*AWeightedPower(pl) {
		t.Error("1 kHz tone should be perceptually much louder than 60 Hz")
	}
}

func TestListenerRatingsOrdering(t *testing.T) {
	// Every listener must rate a deeply cancelled residual above a weakly
	// cancelled one — the invariant behind Figure 15.
	ref := audio.Render(audio.NewWhiteNoise(5, fs, 0.5), 32768)
	good := make([]float64, len(ref))
	poor := make([]float64, len(ref))
	for i, v := range ref {
		good[i] = v * 0.05 // -26 dB
		poor[i] = v * 0.6  // -4.4 dB
	}
	for id := 1; id <= 5; id++ {
		l := NewListener(id)
		rGood, err := l.Rate(good, ref, fs)
		if err != nil {
			t.Fatal(err)
		}
		l2 := NewListener(id)
		rPoor, err := l2.Rate(poor, ref, fs)
		if err != nil {
			t.Fatal(err)
		}
		if rGood <= rPoor {
			t.Errorf("listener %d: good=%.1f poor=%.1f, want good > poor", id, rGood, rPoor)
		}
		if rGood < 1 || rGood > 5 || rPoor < 1 || rPoor > 5 {
			t.Errorf("listener %d ratings out of range: %g, %g", id, rGood, rPoor)
		}
	}
}

func TestListenerDeterminism(t *testing.T) {
	ref := audio.Render(audio.NewWhiteNoise(6, fs, 0.5), 16384)
	res := make([]float64, len(ref))
	for i, v := range ref {
		res[i] = v * 0.2
	}
	a, err := NewListener(3).Rate(res, ref, fs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewListener(3).Rate(res, ref, fs)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same listener rated %g then %g", a, b)
	}
}

func TestListenerRateErrors(t *testing.T) {
	l := NewListener(1)
	if _, err := l.Rate(nil, []float64{1}, fs); err == nil {
		t.Error("empty residual should error")
	}
	if _, err := l.Rate([]float64{1}, nil, fs); err == nil {
		t.Error("empty reference should error")
	}
}
