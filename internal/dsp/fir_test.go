package dsp

import (
	"math"
	"testing"
)

// frequencyResponse evaluates the magnitude response of FIR taps h at
// frequency fHz for the given sample rate.
func frequencyResponse(h []float64, fHz, sampleRate float64) float64 {
	omega := 2 * math.Pi * fHz / sampleRate
	var re, im float64
	for n, v := range h {
		re += v * math.Cos(omega*float64(n))
		im -= v * math.Sin(omega*float64(n))
	}
	return math.Hypot(re, im)
}

func TestLowPassFIRResponse(t *testing.T) {
	fs := 8000.0
	h, err := LowPassFIR(1000, fs, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	if g := frequencyResponse(h, 0, fs); math.Abs(g-1) > 1e-6 {
		t.Errorf("DC gain = %g, want 1", g)
	}
	if g := frequencyResponse(h, 200, fs); math.Abs(g-1) > 0.05 {
		t.Errorf("passband gain at 200 Hz = %g, want ~1", g)
	}
	if g := frequencyResponse(h, 3000, fs); g > 0.01 {
		t.Errorf("stopband gain at 3 kHz = %g, want < 0.01", g)
	}
}

func TestHighPassFIRResponse(t *testing.T) {
	fs := 8000.0
	h, err := HighPassFIR(1000, fs, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	if g := frequencyResponse(h, 0, fs); g > 1e-6 {
		t.Errorf("DC gain = %g, want ~0", g)
	}
	if g := frequencyResponse(h, 3000, fs); math.Abs(g-1) > 0.05 {
		t.Errorf("passband gain at 3 kHz = %g, want ~1", g)
	}
	if g := frequencyResponse(h, 200, fs); g > 0.02 {
		t.Errorf("stopband gain at 200 Hz = %g, want < 0.02", g)
	}
}

func TestFIRDesignErrors(t *testing.T) {
	if _, err := LowPassFIR(5000, 8000, 101, Hann); err == nil {
		t.Error("cutoff above Nyquist should error")
	}
	if _, err := LowPassFIR(-10, 8000, 101, Hann); err == nil {
		t.Error("negative cutoff should error")
	}
	if _, err := LowPassFIR(1000, 0, 101, Hann); err == nil {
		t.Error("zero sample rate should error")
	}
	if _, err := LowPassFIR(1000, 8000, 1, Hann); err == nil {
		t.Error("too few taps should error")
	}
	if _, err := HighPassFIR(1000, 8000, 100, Hann); err == nil {
		t.Error("even taps for high-pass should error")
	}
}

func TestFIRFilterStreamMatchesConvolution(t *testing.T) {
	fs := 8000.0
	h, err := LowPassFIR(1000, fs, 31, Hann)
	if err != nil {
		t.Fatal(err)
	}
	x := randFloats(100, 5)
	want := ConvolveSame(x, h)
	f := NewFIRFilter(h)
	filter := func() []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = f.Process(v)
		}
		return out
	}
	got := filter()
	if !floatsClose(got, want, 1e-12) {
		t.Error("FIRFilter differs from convolution")
	}
	f.Reset()
	got2 := filter()
	if !floatsClose(got2, want, 1e-12) {
		t.Error("FIRFilter after Reset differs from convolution")
	}
}

func TestSinc(t *testing.T) {
	if Sinc(0) != 1 {
		t.Error("Sinc(0) should be 1")
	}
	for _, k := range []float64{1, 2, 3, -1, -5} {
		if v := Sinc(k); math.Abs(v) > 1e-15 {
			t.Errorf("Sinc(%g) = %g, want 0", k, v)
		}
	}
}

func TestWindowShapes(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		c := w.Coefficients(65)
		if len(c) != 65 {
			t.Fatalf("%v: got %d coefficients", w, len(c))
		}
		// Symmetry.
		for i := 0; i < len(c)/2; i++ {
			if math.Abs(c[i]-c[len(c)-1-i]) > 1e-12 {
				t.Errorf("%v: window not symmetric at %d", w, i)
			}
		}
		// Peak at center, bounded by 1.
		for i, v := range c {
			if v > 1+1e-12 || v < -1e-12 {
				t.Errorf("%v: coefficient %d = %g out of [0, 1]", w, i, v)
			}
		}
	}
	one := Hamming.Coefficients(1)
	if len(one) != 1 || one[0] != 1 {
		t.Error("1-point window should be [1]")
	}
}

func TestWindowApply(t *testing.T) {
	x := []float64{1, 1, 1, 1, 1}
	Hann.Apply(x)
	if math.Abs(x[0]) > 1e-12 || math.Abs(x[4]) > 1e-12 {
		t.Error("Hann endpoints should be 0")
	}
	if math.Abs(x[2]-1) > 1e-12 {
		t.Error("Hann center should be 1")
	}
}
