package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func floatsClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randFloats(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()*2 - 1
	}
	return out
}

func TestConvolveKnownValues(t *testing.T) {
	got := Convolve([]float64{1, 2, 3}, []float64{0, 1, 0.5})
	want := []float64{0, 1, 2.5, 4, 1.5}
	if !floatsClose(got, want, 1e-12) {
		t.Errorf("Convolve = %v, want %v", got, want)
	}
}

func TestConvolveIdentity(t *testing.T) {
	x := randFloats(50, 3)
	got := Convolve(x, []float64{1})
	if !floatsClose(got, x, 1e-12) {
		t.Error("convolution with unit impulse should be identity")
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []float64{1}) != nil {
		t.Error("Convolve(nil, h) should be nil")
	}
	if Convolve([]float64{1}, nil) != nil {
		t.Error("Convolve(x, nil) should be nil")
	}
}

func TestConvolveFFTMatchesDirect(t *testing.T) {
	// Force the FFT path with a long kernel and confirm it agrees with the
	// direct path.
	x := randFloats(300, 11)
	h := randFloats(100, 13)
	direct := convolveDirect(x, h)
	fft := convolveFFT(x, h)
	if !floatsClose(direct, fft, 1e-9) {
		t.Error("FFT convolution differs from direct convolution")
	}
}

func TestConvolveCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := randFloats(40, seed)
		h := randFloats(25, seed+1)
		return floatsClose(Convolve(x, h), Convolve(h, x), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// addFloats returns a+b element-wise; the operands have equal length.
func addFloats(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func TestConvolveLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := randFloats(30, seed)
		y := randFloats(30, seed+1)
		h := randFloats(10, seed+2)
		lhs := Convolve(addFloats(x, y), h)
		rhs := addFloats(Convolve(x, h), Convolve(y, h))
		return floatsClose(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStreamConvolverMatchesBatch(t *testing.T) {
	x := randFloats(200, 21)
	h := randFloats(17, 22)
	want := ConvolveSame(x, h)
	sc := NewStreamConvolver(h)
	got := sc.ProcessBlock(x)
	if !floatsClose(got, want, 1e-10) {
		t.Error("streaming convolver differs from batch convolution")
	}
}

func TestStreamConvolverReset(t *testing.T) {
	h := []float64{0.5, 0.25}
	sc := NewStreamConvolver(h)
	sc.Process(1)
	sc.Reset()
	if got := sc.Process(0); got != 0 {
		t.Errorf("after Reset, Process(0) = %g, want 0", got)
	}
}

func TestStreamConvolverEmptyKernel(t *testing.T) {
	sc := NewStreamConvolver(nil)
	if got := sc.Process(1); got != 0 {
		t.Errorf("zero channel should output 0, got %g", got)
	}
}

func TestConvolveAssociativityWithDelta(t *testing.T) {
	// (x * h) * delta == x * h.
	x := randFloats(30, 41)
	h := randFloats(8, 42)
	delta := []float64{1}
	lhs := Convolve(Convolve(x, h), delta)
	rhs := Convolve(x, h)
	if !floatsClose(lhs, rhs, 1e-12) {
		t.Error("convolution with delta is not identity")
	}
}

func BenchmarkConvolveDirect64(b *testing.B) {
	x := randFloats(4096, 1)
	h := randFloats(64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Convolve(x, h)
	}
}

func BenchmarkConvolveFFT1024(b *testing.B) {
	x := randFloats(4096, 1)
	h := randFloats(1024, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Convolve(x, h)
	}
}

func BenchmarkStreamConvolver256(b *testing.B) {
	h := randFloats(256, 2)
	sc := NewStreamConvolver(h)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Process(1.0)
	}
}
