package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// FFT computes the discrete Fourier transform of x into a new slice: the
// cached radix-2 plan for power-of-two lengths, the Bluestein chirp-z plan
// otherwise. It is the complex reference the real and pruned transforms
// are checked against.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if IsPow2(n) {
		PlanFFT(n).Forward(out)
		return out
	}
	planBluestein(n).transform(out, false)
	return out
}

// IFFT computes the inverse DFT of x with 1/N normalization.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if IsPow2(n) {
		PlanFFT(n).Inverse(out)
		return out
	}
	planBluestein(n).transform(out, true)
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// dftNaive is the O(n^2) reference DFT used to validate the fast paths.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = acc
	}
	return out
}

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randComplex(n int, seed int64) []complex128 {
	r := rand.New(rand.NewSource(seed))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
	}
	return out
}

func TestFFTMatchesNaiveDFTPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(n, int64(n))
		got := FFT(x)
		want := dftNaive(x)
		if !complexClose(got, want, 1e-8*float64(n)) {
			t.Errorf("n=%d: FFT differs from naive DFT", n)
		}
	}
}

func TestFFTMatchesNaiveDFTArbitraryN(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 9, 11, 12, 100, 241} {
		x := randComplex(n, int64(n)+1000)
		got := FFT(x)
		want := dftNaive(x)
		if !complexClose(got, want, 1e-7*float64(n)) {
			t.Errorf("n=%d: Bluestein FFT differs from naive DFT", n)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 100, 128} {
		x := randComplex(n, int64(n)+77)
		back := IFFT(FFT(x))
		if !complexClose(back, x, 1e-9*float64(n)+1e-12) {
			t.Errorf("n=%d: IFFT(FFT(x)) != x", n)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if FFT(nil) != nil {
		t.Error("FFT(nil) should be nil")
	}
	if IFFT(nil) != nil {
		t.Error("IFFT(nil) should be nil")
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// FFT(a*x + b*y) == a*FFT(x) + b*FFT(y).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64
		x := randComplex(n, seed)
		y := randComplex(n, seed+1)
		a := complex(r.Float64()*2-1, r.Float64()*2-1)
		b := complex(r.Float64()*2-1, r.Float64()*2-1)
		mixed := make([]complex128, n)
		for i := range mixed {
			mixed[i] = a*x[i] + b*y[i]
		}
		lhs := FFT(mixed)
		fx, fy := FFT(x), FFT(y)
		rhs := make([]complex128, n)
		for i := range rhs {
			rhs[i] = a*fx[i] + b*fy[i]
		}
		return complexClose(lhs, rhs, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/N) sum |X|^2.
	f := func(seed int64) bool {
		n := 128
		x := randComplex(n, seed)
		X := FFT(x)
		var td, fd float64
		for i := range x {
			td += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			fd += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		fd /= float64(n)
		return math.Abs(td-fd) < 1e-7*td+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTRealImpulse(t *testing.T) {
	// The spectrum of an impulse is flat with magnitude 1.
	x := make([]float64, 32)
	x[0] = 1
	X := FFTReal(x, 32)
	for k, v := range X {
		if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
			t.Fatalf("bin %d: |X|=%g, want 1", k, cmplx.Abs(v))
		}
	}
}

func TestSpectrumTone(t *testing.T) {
	// A pure 1 kHz tone at fs=8 kHz should peak at the 1 kHz bin.
	fs := 8000.0
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 1000 * float64(i) / fs)
	}
	plan := PlanRFFT(n)
	X := make([]complex128, plan.Bins())
	plan.Forward(X, x)
	best := 0
	for k := range X {
		if cmplx.Abs(X[k]) > cmplx.Abs(X[best]) {
			best = k
		}
	}
	if f := float64(best) * fs / float64(n); math.Abs(f-1000) > fs/float64(n) {
		t.Errorf("spectrum peak at %g Hz, want ~1000 Hz", f)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randComplex(1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	x := randComplex(1000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
