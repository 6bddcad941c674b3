package dsp

import (
	"math"
	"math/cmplx"
	"sync"
)

// FFTReal computes the DFT of a real signal, returning the full complex
// spectrum of length len(x) (zero-padded to n if n > len(x)).
func FFTReal(x []float64, n int) []complex128 {
	if n < len(x) {
		n = len(x)
	}
	cx := make([]complex128, n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	if IsPow2(n) {
		PlanFFT(n).Forward(cx)
		return cx
	}
	planBluestein(n).transform(cx, false)
	return cx
}

// bluesteinPlan evaluates an arbitrary-length DFT as a convolution through
// the radix-2 plans. The chirp and the kernel spectrum for both directions
// are precomputed once per size.
type bluesteinPlan struct {
	n, m   int
	mp     *FFTPlan
	wF, wI []complex128 // chirp exp(±iπk²/n)
	bF, bI []complex128 // FFT of the chirp-conjugate kernel, per direction
}

var bluesteinPlans sync.Map // int → *bluesteinPlan

func planBluestein(n int) *bluesteinPlan {
	if v, ok := bluesteinPlans.Load(n); ok {
		return v.(*bluesteinPlan)
	}
	m := NextPow2(2*n - 1)
	p := &bluesteinPlan{n: n, m: m, mp: PlanFFT(m)}
	p.wF = bluesteinChirp(n, -1)
	p.wI = bluesteinChirp(n, +1)
	p.bF = bluesteinKernel(p.wF, n, m, p.mp)
	p.bI = bluesteinKernel(p.wI, n, m, p.mp)
	v, _ := bluesteinPlans.LoadOrStore(n, p)
	return v.(*bluesteinPlan)
}

func bluesteinChirp(n int, sign float64) []complex128 {
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		k2 := (int64(k) * int64(k)) % (2 * int64(n))
		w[k] = cmplx.Rect(1, sign*math.Pi*float64(k2)/float64(n))
	}
	return w
}

func bluesteinKernel(w []complex128, n, m int, mp *FFTPlan) []complex128 {
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	mp.Forward(b)
	return b
}

// transform computes the DFT (or conjugate DFT) of x in place, without any
// normalization factor.
func (p *bluesteinPlan) transform(x []complex128, inverse bool) {
	w, b := p.wF, p.bF
	if inverse {
		w, b = p.wI, p.bI
	}
	a := getComplex(p.m)
	defer putComplex(a)
	for k := 0; k < p.n; k++ {
		a[k] = x[k] * w[k]
	}
	for k := p.n; k < p.m; k++ {
		a[k] = 0
	}
	p.mp.Forward(a)
	for i := range a {
		a[i] *= b[i]
	}
	p.mp.inverseRaw(a)
	invM := complex(1/float64(p.m), 0)
	for k := 0; k < p.n; k++ {
		x[k] = a[k] * invM * w[k]
	}
}
