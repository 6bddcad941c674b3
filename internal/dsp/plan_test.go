package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refFFT is a verbatim copy of the pre-plan streaming radix-2 kernel. The
// planned transform must keep its values: every output equal (==) and
// every non-zero output bit for bit, only an exact zero's sign free. The
// golden-trace suite pins the whole pipeline at 1e-9 absolute and the
// digest pins hash raw sample bits, so the plan is only safe if it is
// numerically invisible.
func refFFT(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		half := length >> 1
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

func planRandComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func planRandFloat(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestFFTPlanBitIdenticalToLegacyKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 4096; n <<= 1 {
		x := planRandComplex(rng, n)
		for _, inverse := range []bool{false, true} {
			want := append([]complex128(nil), x...)
			refFFT(want, inverse)
			got := append([]complex128(nil), x...)
			p := PlanFFT(n)
			if inverse {
				// Compare the unscaled conjugate transform.
				p.inverseRaw(got)
			} else {
				p.Forward(got)
			}
			for i := range want {
				if !sameComplexValue(got[i], want[i]) {
					t.Fatalf("n=%d inverse=%v bin %d: plan %v, legacy kernel %v",
						n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPackageFFTBitIdenticalAcrossLengths(t *testing.T) {
	// The package helpers (now plan-routed, Bluestein included) must return
	// the same bits the seed implementation did. The reference here computes
	// the legacy composition from refFFT directly.
	legacyBluestein := func(x []complex128, inverse bool) []complex128 {
		n := len(x)
		sign := -1.0
		if inverse {
			sign = 1.0
		}
		w := make([]complex128, n)
		for k := 0; k < n; k++ {
			k2 := (int64(k) * int64(k)) % (2 * int64(n))
			w[k] = cmplx.Rect(1, sign*math.Pi*float64(k2)/float64(n))
		}
		m := NextPow2(2*n - 1)
		a := make([]complex128, m)
		b := make([]complex128, m)
		for k := 0; k < n; k++ {
			a[k] = x[k] * w[k]
			b[k] = cmplx.Conj(w[k])
		}
		for k := 1; k < n; k++ {
			b[m-k] = cmplx.Conj(w[k])
		}
		refFFT(a, false)
		refFFT(b, false)
		for i := range a {
			a[i] *= b[i]
		}
		refFFT(a, true)
		invM := complex(1/float64(m), 0)
		out := make([]complex128, n)
		for k := 0; k < n; k++ {
			out[k] = a[k] * invM * w[k]
		}
		return out
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 5, 6, 7, 12, 16, 33, 100, 255, 256, 1000} {
		x := planRandComplex(rng, n)
		var wantF []complex128
		if IsPow2(n) {
			wantF = append([]complex128(nil), x...)
			refFFT(wantF, false)
		} else {
			wantF = legacyBluestein(x, false)
		}
		gotF := FFT(x)
		for i := range wantF {
			if !sameComplexValue(gotF[i], wantF[i]) {
				t.Fatalf("FFT n=%d bin %d: %v, legacy %v", n, i, gotF[i], wantF[i])
			}
		}
		var wantI []complex128
		if IsPow2(n) {
			wantI = append([]complex128(nil), x...)
			refFFT(wantI, true)
		} else {
			wantI = legacyBluestein(x, true)
		}
		inv := complex(1/float64(n), 0)
		for i := range wantI {
			wantI[i] *= inv
		}
		gotI := IFFT(x)
		for i := range wantI {
			if !sameComplexValue(gotI[i], wantI[i]) {
				t.Fatalf("IFFT n=%d bin %d: %v, legacy %v", n, i, gotI[i], wantI[i])
			}
		}
	}
}

func TestRFFTMatchesComplexFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 2; n <= 4096; n <<= 1 {
		x := planRandFloat(rng, n)
		full := FFTReal(x, n)
		p := PlanRFFT(n)
		half := make([]complex128, p.Bins())
		p.Forward(half, x)
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(half[k] - full[k]); d > 1e-11*(1+cmplx.Abs(full[k])) {
				t.Fatalf("n=%d bin %d: rfft %v, full fft %v (|d|=%g)", n, k, half[k], full[k], d)
			}
		}
	}
}

func TestRFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n := 2; n <= 2048; n <<= 1 {
		x := planRandFloat(rng, n)
		p := PlanRFFT(n)
		spec := make([]complex128, p.Bins())
		p.Forward(spec, x)
		back := make([]float64, n)
		p.Inverse(back, spec) // destroys spec
		for i := range x {
			if d := math.Abs(back[i] - x[i]); d > 1e-11*(1+math.Abs(x[i])) {
				t.Fatalf("n=%d sample %d: round trip %v, original %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestRFFTTinySizes(t *testing.T) {
	// n=2 and n=4 exercise the special case and the smallest recombination.
	for _, x := range [][]float64{{3, -1}, {1, 2, 3, 4}} {
		n := len(x)
		full := FFTReal(x, n)
		p := PlanRFFT(n)
		spec := make([]complex128, p.Bins())
		p.Forward(spec, x)
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(spec[k] - full[k]); d > 1e-12 {
				t.Fatalf("n=%d bin %d: %v vs %v", n, k, spec[k], full[k])
			}
		}
		back := make([]float64, n)
		p.Inverse(back, spec)
		for i := range x {
			if d := math.Abs(back[i] - x[i]); d > 1e-12 {
				t.Fatalf("n=%d sample %d: %v vs %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestMulSpectra(t *testing.T) {
	a := []complex128{1 + 2i, 3, -1i}
	b := []complex128{2, 1 - 1i, 4i}
	dst := make([]complex128, 3)
	MulSpectra(dst, a, b)
	want := []complex128{2 + 4i, 3 - 3i, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("bin %d: %v, want %v", i, dst[i], want[i])
		}
	}
	// Aliasing dst with a must work.
	MulSpectra(a, a, b)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("aliased bin %d: %v, want %v", i, a[i], want[i])
		}
	}
}

func TestPlanCachesShareInstances(t *testing.T) {
	if PlanFFT(256) != PlanFFT(256) {
		t.Error("PlanFFT(256) returned distinct instances")
	}
	if PlanRFFT(256) != PlanRFFT(256) {
		t.Error("PlanRFFT(256) returned distinct instances")
	}
}

func TestPlanRejectsNonPow2(t *testing.T) {
	if _, err := NewFFTPlan(12); err == nil {
		t.Error("NewFFTPlan(12) accepted a non-power-of-two")
	}
	if _, err := NewRFFTPlan(1); err == nil {
		t.Error("NewRFFTPlan(1) accepted length 1")
	}
	defer func() {
		if recover() == nil {
			t.Error("PlanFFT(3) did not panic")
		}
	}()
	PlanFFT(3)
}

func TestPlanTransformsAllocateNothing(t *testing.T) {
	p := PlanFFT(1024)
	buf := make([]complex128, 1024)
	if n := testing.AllocsPerRun(50, func() { p.Forward(buf); p.Inverse(buf) }); n != 0 {
		t.Errorf("FFTPlan Forward+Inverse allocated %.1f times per run", n)
	}
	rp := PlanRFFT(1024)
	src := make([]float64, 1024)
	spec := make([]complex128, rp.Bins())
	dst := make([]float64, 1024)
	if n := testing.AllocsPerRun(50, func() { rp.Forward(spec, src); rp.Inverse(dst, spec) }); n != 0 {
		t.Errorf("RFFTPlan Forward+Inverse allocated %.1f times per run", n)
	}
	halfSrc := make([]float64, 512)
	halfDst := make([]float64, 512)
	if n := testing.AllocsPerRun(50, func() {
		rp.ForwardHead(spec, halfSrc)
		rp.InverseHead(halfDst, spec)
		rp.ForwardTail(spec, halfSrc)
		rp.InverseTail(halfDst, spec)
	}); n != 0 {
		t.Errorf("RFFTPlan pruned transforms allocated %.1f times per run", n)
	}
}

// FuzzRFFTRoundTrip cross-checks the packed real transform against the full
// complex FFT and its own inverse on arbitrary inputs.
func FuzzRFFTRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(99), uint8(0))
	f.Add(int64(-7), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, logN uint8) {
		n := 2 << (logN % 10) // 2..1024
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
		}
		p := PlanRFFT(n)
		spec := make([]complex128, p.Bins())
		p.Forward(spec, x)
		full := FFTReal(x, n)
		scale := 0.0
		for _, v := range x {
			scale += math.Abs(v)
		}
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(spec[k] - full[k]); d > 1e-9*(1+scale) {
				t.Fatalf("n=%d bin %d: rfft %v, full %v", n, k, spec[k], full[k])
			}
		}
		back := make([]float64, n)
		p.Inverse(back, spec)
		for i := range x {
			if d := math.Abs(back[i] - x[i]); d > 1e-9*(1+scale) {
				t.Fatalf("n=%d sample %d: %v, want %v", n, i, back[i], x[i])
			}
		}
	})
}

func BenchmarkFFTPlanForward1024(b *testing.B) {
	p := PlanFFT(1024)
	buf := make([]complex128, 1024)
	for i := range buf {
		buf[i] = complex(float64(i%7), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(buf)
	}
}

func BenchmarkRFFTPlanForward1024(b *testing.B) {
	p := PlanRFFT(1024)
	src := make([]float64, 1024)
	for i := range src {
		src[i] = float64(i % 7)
	}
	dst := make([]complex128, p.Bins())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(dst, src)
	}
}

func BenchmarkLegacyFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refFFT(x, false)
	}
}

// benchRFFT times one entry point of the n-point real plan at the sizes
// the FDAF sessions run (a 2B-point window for block size B), in its full
// and half-window modes.
func benchRFFT(b *testing.B, n int, inverse bool) {
	p := PlanRFFT(n)
	rng := rand.New(rand.NewSource(5))
	win := planRandFloat(rng, n)
	spec := make([]complex128, p.Bins())
	p.Forward(spec, win)
	scratch := make([]complex128, p.Bins())
	for _, mode := range []struct {
		name string
		live part
	}{{"full", whole}, {"head", head}, {"tail", tail}} {
		size := n
		if mode.live != whole {
			size = n / 2
		}
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			if inverse {
				dst := make([]float64, size)
				for i := 0; i < b.N; i++ {
					copy(scratch, spec) // inverse destroys its input
					p.inverse(dst, scratch, mode.live)
				}
				return
			}
			for i := 0; i < b.N; i++ {
				p.forward(scratch, win[:size], mode.live)
			}
		})
	}
}

func BenchmarkRFFTForward32(b *testing.B) { benchRFFT(b, 32, false) }
func BenchmarkRFFTForward64(b *testing.B) { benchRFFT(b, 64, false) }
func BenchmarkRFFTInverse32(b *testing.B) { benchRFFT(b, 32, true) }
func BenchmarkRFFTInverse64(b *testing.B) { benchRFFT(b, 64, true) }
