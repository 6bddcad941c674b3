package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The seed kernel: the planned real transforms as they stood when every
// multiply by a constant factor (½, ∓i/2, +i, 1/n and the unit twiddle
// that opens every stage) ran as a full complex product. It is kept as the
// oracle the shipped kernel is held to: on finite input that does not
// overflow, every output equals the seed's (==) and every non-zero output
// has the seed's exact bits; only the sign of an exact zero may differ.
// The seed complex plan was bit-identical to refFFT (plan_test.go), which
// stands in for it.

// seedStages is the seed kernel's butterfly network (see stages).
func seedStages(a []complex128, tw []complex128, live, keep part) {
	n := len(a)
	var zero complex128
	w1 := tw[0]
	if n == 2 {
		u, v := zero, zero
		if live != tail {
			u = a[0]
		}
		if live != head {
			v = a[1] * w1
		}
		a[0], a[1] = u+v, u-v
		return
	}
	w2a, w2b := tw[1], tw[2]
	for s := 0; s < n; s += 4 {
		q := a[s : s+4 : s+4]
		var x0, x1, x2, x3 complex128
		switch live {
		case head:
			x0, x1 = q[0]+zero, q[0]-zero
			x2, x3 = q[2]+zero, q[2]-zero
		case tail:
			v1, v3 := q[1]*w1, q[3]*w1
			x0, x1 = zero+v1, zero-v1
			x2, x3 = zero+v3, zero-v3
		default:
			u0, v1 := q[0], q[1]*w1
			u2, v3 := q[2], q[3]*w1
			x0, x1 = u0+v1, u0-v1
			x2, x3 = u2+v3, u2-v3
		}
		v2, v3 := x2*w2a, x3*w2b
		q[0], q[2] = x0+v2, x0-v2
		q[1], q[3] = x1+v3, x1-v3
	}
	t := 3
	for length := 8; length <= n; length <<= 1 {
		half := length >> 1
		stage := tw[t : t+half]
		t += half
		if length == n && keep != whole {
			lo := a[:half:half]
			hi := a[half:n:n]
			if keep == head {
				for k, w := range stage {
					lo[k] += hi[k] * w
				}
			} else {
				for k, w := range stage {
					hi[k] = lo[k] - hi[k]*w
				}
			}
			return
		}
		for start := 0; start < n; start += length {
			lo := a[start : start+half : start+half]
			hi := a[start+half : start+length : start+length]
			for k, w := range stage {
				u := lo[k]
				v := hi[k] * w
				lo[k] = u + v
				hi[k] = u - v
			}
		}
	}
}

// seedRFFTForward is the seed RFFTPlan.forward.
func seedRFFTForward(p *RFFTPlan, dst []complex128, src []float64, live part) {
	n := p.n
	if n == 2 {
		var x0, x1 float64
		switch live {
		case whole:
			x0, x1 = src[0], src[1]
		case head:
			x0 = src[0]
		case tail:
			x1 = src[0]
		}
		dst[0] = complex(x0+x1, 0)
		dst[1] = complex(x0-x1, 0)
		return
	}
	h := n / 2
	z := dst[:h]
	rev := p.half.rev
	switch live {
	case head:
		rev = rev[:h/2]
	case tail:
		rev = rev[h/2:]
	}
	for k, j := range rev {
		z[j] = complex(src[2*k], src[2*k+1])
	}
	seedStages(z, p.half.twF, live, whole)
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= n/4; k++ {
		a := z[k]
		b := cmplx.Conj(z[h-k])
		u := (a + b) * 0.5
		v := (a - b) * complex(0, -0.5) // (a-b)/(2i)
		v *= p.twF[k]
		dst[k] = u + v
		dst[h-k] = cmplx.Conj(u - v)
	}
}

// seedRFFTInverse is the seed RFFTPlan.inverse; src is destroyed.
func seedRFFTInverse(p *RFFTPlan, dst []float64, src []complex128, keep part) {
	n := p.n
	if n == 2 {
		x0 := (real(src[0]) + real(src[1])) * 0.5
		x1 := (real(src[0]) - real(src[1])) * 0.5
		switch keep {
		case whole:
			dst[0], dst[1] = x0, x1
		case head:
			dst[0] = x0
		case tail:
			dst[0] = x1
		}
		return
	}
	h := n / 2
	z := src[:h]
	x0 := real(src[0])
	xn := real(src[h])
	z[0] = complex((x0+xn)*0.5, (x0-xn)*0.5)
	for k := 1; k <= n/4; k++ {
		a := src[k]
		b := cmplx.Conj(src[h-k])
		u := (a + b) * 0.5
		v := (a - b) * 0.5
		odd := v * p.twI[k]
		z[k] = u + complex(0, 1)*odd
		z[h-k] = cmplx.Conj(u) + complex(0, 1)*cmplx.Conj(odd)
	}
	p.half.permute(z)
	seedStages(z, p.half.twI, whole, keep)
	switch keep {
	case head:
		z = z[:h/2]
	case tail:
		z = z[h/2:]
	}
	inv := complex(1/float64(h), 0)
	for k, v := range z {
		v *= inv
		dst[2*k] = real(v)
		dst[2*k+1] = imag(v)
	}
}

// sameValue reports whether got keeps the seed kernel's value: equal as
// numbers, and bit-identical unless both are zero.
func sameValue(got, want float64) bool {
	return got == want && (got == 0 || math.Float64bits(got) == math.Float64bits(want))
}

func sameComplexValue(got, want complex128) bool {
	return sameValue(real(got), real(want)) && sameValue(imag(got), imag(want))
}

// checkMatchesSeed runs every entry point of the n-point real plan and of
// its n/2-point complex plan on the live half x (len n/2), the window w
// (len n) and the half spectrum s (len n/2+1) through the shipped and the
// seed kernel, reporting the first output that does not keep the seed's
// value.
func checkMatchesSeed(n int, x, w []float64, s []complex128) error {
	p := PlanRFFT(n)
	h := n / 2
	forwards := []struct {
		live part
		src  []float64
	}{{whole, w}, {head, x}, {tail, x}}
	got := make([]complex128, p.Bins())
	want := make([]complex128, p.Bins())
	for _, f := range forwards {
		p.forward(got, f.src, f.live)
		seedRFFTForward(p, want, f.src, f.live)
		for k := range want {
			if !sameComplexValue(got[k], want[k]) {
				return fmt.Errorf("n=%d forward part %d bin %d: %v, seed %v", n, f.live, k, got[k], want[k])
			}
		}
	}
	for _, keep := range []part{whole, head, tail} {
		size := n
		if keep != whole {
			size = h
		}
		gotT := make([]float64, size)
		wantT := make([]float64, size)
		p.inverse(gotT, append([]complex128(nil), s...), keep)
		seedRFFTInverse(p, wantT, append([]complex128(nil), s...), keep)
		for i := range wantT {
			if !sameValue(gotT[i], wantT[i]) {
				return fmt.Errorf("n=%d inverse part %d sample %d: %v, seed %v", n, keep, i, gotT[i], wantT[i])
			}
		}
	}
	c := PlanFFT(h)
	a := make([]complex128, h)
	for k := range a {
		a[k] = complex(w[2*k], w[2*k+1])
	}
	for _, inverse := range []bool{false, true} {
		gotC := append([]complex128(nil), a...)
		wantC := append([]complex128(nil), a...)
		refFFT(wantC, inverse) // the seed FFTPlan's bits
		if inverse {
			c.Inverse(gotC)
			inv := complex(1/float64(h), 0)
			for k := range wantC {
				wantC[k] *= inv
			}
		} else {
			c.Forward(gotC)
		}
		for k := range wantC {
			if !sameComplexValue(gotC[k], wantC[k]) {
				return fmt.Errorf("complex n=%d inverse=%v bin %d: %v, seed %v", h, inverse, k, gotC[k], wantC[k])
			}
		}
	}
	return nil
}

func TestRFFTMatchesSeedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 4; n <= 1024; n <<= 1 {
		for _, kind := range pruneInputKinds {
			gen := func() float64 { return kind.gen(rng) }
			for trial := 0; trial < 5; trial++ {
				x := make([]float64, n/2)
				w := make([]float64, n)
				s := make([]complex128, n/2+1)
				fillReal(x, gen)
				fillReal(w, gen)
				fillSpectrum(s, gen)
				if err := checkMatchesSeed(n, x, w, s); err != nil {
					t.Fatalf("%s trial %d: %v", kind.name, trial, err)
				}
			}
		}
	}
}

// FuzzRFFTMatchesSeed holds the shipped kernel to the seed kernel on
// arbitrary finite sample bits: data is read as little-endian float64s
// (cycled to fill the half window, the window and the spectrum); a
// non-finite value becomes zero and a magnitude above 1e100 is scaled by
// 2^-700, exactly, so no transform up to 1024 points can overflow.
func FuzzRFFTMatchesSeed(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	f.Add(uint8(3), binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, 1), math.Float64bits(-2.5)))
	f.Add(uint8(8), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e100)))
	f.Add(uint8(5), binary.LittleEndian.AppendUint64(nil, 3)) // subnormal
	f.Fuzz(func(t *testing.T, logN uint8, data []byte) {
		n := 4 << (logN % 9) // 4..1024
		words := len(data) / 8
		next := 0
		gen := func() float64 {
			if words == 0 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(next%words):]))
			next++
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			if math.Abs(v) > 1e100 {
				v = math.Ldexp(v, -700)
			}
			return v
		}
		x := make([]float64, n/2)
		w := make([]float64, n)
		s := make([]complex128, n/2+1)
		fillReal(x, gen)
		fillReal(w, gen)
		fillSpectrum(s, gen)
		if err := checkMatchesSeed(n, x, w, s); err != nil {
			t.Fatal(err)
		}
	})
}
