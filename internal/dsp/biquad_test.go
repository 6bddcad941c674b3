package dsp

import (
	"math"
	"testing"
)

// sineGain measures the steady-state amplitude gain of filter fn at fHz by
// running a tone through it and comparing RMS after the transient.
func sineGain(process func(float64) float64, fHz, fs float64) float64 {
	n := int(fs)
	skip := n / 4
	var in, out float64
	for i := 0; i < n; i++ {
		x := math.Sin(2 * math.Pi * fHz * float64(i) / fs)
		y := process(x)
		if i >= skip {
			in += x * x
			out += y * y
		}
	}
	return math.Sqrt(out / in)
}

// TestBiquadAllDesignsMatchResponse cross-checks the time-domain filter
// against its own analytic magnitude response on every design type.
func TestBiquadAllDesignsMatchResponse(t *testing.T) {
	fs := 8000.0
	designs := []struct {
		name string
		mk   func() (*Biquad, error)
	}{
		{"lowpass", func() (*Biquad, error) { return NewLowPassBiquad(800, fs, 0.7071) }},
		{"highpass", func() (*Biquad, error) { return NewHighPassBiquad(800, fs, 0.7071) }},
		{"peak", func() (*Biquad, error) { return NewPeakBiquad(1000, fs, 1.5, 5) }},
		{"highshelf", func() (*Biquad, error) { return NewHighShelfBiquad(1500, fs, 0.9, -8) }},
	}
	for _, d := range designs {
		for _, f := range []float64{200, 1000, 3000} {
			bq, err := d.mk()
			if err != nil {
				t.Fatal(err)
			}
			want := bq.Response(f, fs)
			got := sineGain(bq.Process, f, fs)
			if math.Abs(got-want) > 0.02*math.Max(want, 1) {
				t.Errorf("%s at %g Hz: measured gain %g, Response says %g", d.name, f, got, want)
			}
		}
	}
}

// TestBiquadShelfGains pins the shelf design's asymptotic gains: the
// stop-side stays at unity while the shelf side approaches the design dB.
func TestBiquadShelfGains(t *testing.T) {
	fs := 8000.0
	hs, err := NewHighShelfBiquad(1000, fs, 0.7071, -12)
	if err != nil {
		t.Fatal(err)
	}
	if g := hs.Response(50, fs); math.Abs(g-1) > 0.05 {
		t.Errorf("high shelf at 50 Hz: gain %g, want ~1", g)
	}
	want := math.Pow(10, -12.0/20)
	if g := hs.Response(3800, fs); math.Abs(g-want) > 0.05*want {
		t.Errorf("high shelf at 3.8 kHz: gain %g, want ~%g", g, want)
	}
}

// TestBiquadChainProductAndReset checks the cascade: its response is the
// product of the sections', block processing matches per-sample, and
// Reset clears state.
func TestBiquadChainProductAndReset(t *testing.T) {
	fs := 8000.0
	lp, err := NewLowPassBiquad(1200, fs, 0.7071)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := NewPeakBiquad(600, fs, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	chain := NewBiquadChain(lp, pk)
	for _, f := range []float64{100, 600, 2000} {
		want := lp.Response(f, fs) * pk.Response(f, fs)
		if got := chain.Response(f, fs); math.Abs(got-want) > 1e-12 {
			t.Errorf("chain response at %g Hz: %g, want product %g", f, got, want)
		}
	}

	x := make([]float64, 64)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.3)
	}
	block := chain.ProcessBlock(x)
	chain.Reset()
	for i, v := range x {
		if got := chain.Process(v); got != block[i] {
			t.Fatalf("sample %d: Process %g differs from ProcessBlock %g after Reset", i, got, block[i])
		}
	}

	// Reset must return the chain to quiescence: a zero input then yields
	// a zero output.
	chain.Reset()
	if got := chain.Process(0); got != 0 {
		t.Errorf("Process(0) after Reset = %g, want 0", got)
	}
}

func TestBiquadShelfErrors(t *testing.T) {
	if _, err := NewHighShelfBiquad(5000, 8000, 0.7, -6); err == nil {
		t.Error("high shelf corner above Nyquist should error")
	}
	if _, err := NewHighShelfBiquad(100, 8000, -1, 6); err == nil {
		t.Error("negative q should error")
	}
}
