package dsp

import (
	"math"
	"testing"
)

// TestResampleTailRegression pins the group-delay fix: downsampling runs
// the input through a linear-phase anti-alias FIR whose delay used to be
// compensated with a plain shift, leaving the last gd samples zero-filled
// — a pure tone came back with a dead tail. The compensated convolution
// must keep the tail at full amplitude.
func TestResampleTailRegression(t *testing.T) {
	fs, n := 44100.0, 44100
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 440 * float64(i) / fs)
	}
	y, err := Resample(x, fs, 8000)
	if err != nil {
		t.Fatal(err)
	}
	// The windowed-sinc readout itself tapers over its ~17-sample support
	// at the very edge; the regression left ~6 output samples (31 input
	// samples at the rate ratio) hard-zero before that. Compare the RMS of
	// the last pre-edge stretch against the steady state.
	body := rmsOf(y[len(y)/4 : len(y)/2])
	tail := rmsOf(y[len(y)-40 : len(y)-8])
	if tail < 0.8*body {
		t.Errorf("tail RMS %g vs body RMS %g: anti-alias group delay is truncating the tail", tail, body)
	}
	for i, v := range y[len(y)-8:] {
		if v != 0 {
			break
		}
		if i == 7 {
			t.Error("last 8 output samples are all exactly zero")
		}
	}
}

// TestResampleLengthRounding checks output lengths for ratios that do not
// divide evenly, including the one-sample floor.
func TestResampleLengthRounding(t *testing.T) {
	cases := []struct {
		n        int
		src, dst float64
		want     int
	}{
		{44100, 44100, 8000, 8000},
		{44101, 44100, 8000, 8000}, // rounds, not truncates
		{100, 8000, 44100, 551},
		{1, 44100, 8000, 1}, // floor of one sample
	}
	for _, c := range cases {
		y, err := Resample(make([]float64, c.n), c.src, c.dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(y) != c.want {
			t.Errorf("Resample(%d, %g, %g) produced %d samples, want %d", c.n, c.src, c.dst, len(y), c.want)
		}
	}
}

// TestResampleAntiAlias feeds a tone above the destination Nyquist: the
// low-pass stage must keep it out of the output instead of folding it.
func TestResampleAntiAlias(t *testing.T) {
	fs, n := 16000.0, 16000
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 5000 * float64(i) / fs)
	}
	y, err := Resample(x, fs, 8000)
	if err != nil {
		t.Fatal(err)
	}
	in := rmsOf(x)
	out := rmsOf(y[100 : len(y)-100])
	if att := DB((out * out) / (in * in)); att > -40 {
		t.Errorf("5 kHz tone attenuated only %.1f dB by 16k→8k resample, want < -40 dB", att)
	}
}

// TestResampleUpsamplePreservesTone checks the upsampling path (no
// anti-alias stage) keeps an in-band tone intact.
func TestResampleUpsamplePreservesTone(t *testing.T) {
	fs, n := 8000.0, 8000
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 440 * float64(i) / fs)
	}
	y, err := Resample(x, fs, 16000)
	if err != nil {
		t.Fatal(err)
	}
	psd, err := WelchPSD(y[200:len(y)-200], 16000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if frac := psd.BandPower(350, 550) / psd.BandPower(0, math.Inf(1)); frac < 0.95 {
		t.Errorf("440 Hz tone holds only %.2f of output power after upsampling", frac)
	}
}

func rmsOf(x []float64) float64 { return math.Sqrt(Power(x)) }
