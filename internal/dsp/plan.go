package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// FFTPlan is a precomputed radix-2 transform plan: the bit-reversal
// permutation and every stage's twiddle factors are tabulated once at plan
// time, so Forward/Inverse run fully in place with zero allocations and no
// trigonometry on the hot path.
//
// The twiddle tables are generated by the exact recurrence the original
// streaming kernel used (w ← w·wl from w = 1), so a planned transform is
// bit-identical to the legacy per-call kernel — the golden-trace suite and
// every overlap-save consumer see the same samples to the last ulp.
//
// The butterfly kernel has pruned modes for transforms with a known-zero
// input half or a discarded output half (see stages); RFFTPlan's
// half-window entry points are built on them. A pruned mode skips work but
// never reorders it: every value it produces comes out of the same
// butterflies, in the same order, as in the full transform.
//
// Plans are immutable after construction and safe for concurrent use on
// distinct data. Obtain shared cached plans with PlanFFT.
type FFTPlan struct {
	n    int
	swap []int32      // bit-reversal swap pairs (i, j), i < j, flattened
	rev  []int32      // rev[k] = bit-reversed k, the slot input k moves to
	twF  []complex128 // forward twiddles, stages concatenated (len n-1)
	twI  []complex128 // inverse twiddles (conjugate recurrence)
}

// part names the part of a transform's samples a pruned mode touches.
type part uint8

const (
	whole part = iota // all n samples
	head              // the first n/2 samples
	tail              // the last n/2 samples
)

// NewFFTPlan builds a plan for power-of-two length n (n >= 1).
func NewFFTPlan(n int) (*FFTPlan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("dsp: FFT plan length %d is not a power of two", n)
	}
	p := &FFTPlan{n: n, rev: make([]int32, n)}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		p.rev[i] = int32(j)
		if i < j {
			p.swap = append(p.swap, int32(i), int32(j))
		}
	}
	p.twF = twiddleTable(n, -1)
	p.twI = twiddleTable(n, +1)
	return p, nil
}

// twiddleTable tabulates per-stage twiddles with the same recurrence the
// streaming kernel evaluated inline, preserving bit-identity.
func twiddleTable(n int, sign float64) []complex128 {
	if n < 2 {
		return nil
	}
	tw := make([]complex128, 0, n-1)
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		w := complex(1, 0)
		for k := 0; k < length>>1; k++ {
			tw = append(tw, w)
			w *= wl
		}
	}
	return tw
}

// Forward computes the in-place DFT of a. len(a) must equal N().
func (p *FFTPlan) Forward(a []complex128) { p.transform(a, p.twF) }

// Inverse computes the in-place inverse DFT of a with 1/N normalization.
func (p *FFTPlan) Inverse(a []complex128) {
	p.transform(a, p.twI)
	inv := complex(1/float64(p.n), 0)
	for i := range a {
		a[i] *= inv
	}
}

// inverseRaw is the conjugate transform without the 1/N factor (the form
// Bluestein's convolution needs).
func (p *FFTPlan) inverseRaw(a []complex128) { p.transform(a, p.twI) }

func (p *FFTPlan) transform(a []complex128, tw []complex128) {
	n := p.n
	if len(a) != n {
		panic(fmt.Sprintf("dsp: FFT plan length %d applied to %d samples", n, len(a)))
	}
	if n <= 1 {
		return
	}
	p.permute(a)
	stages(a, tw, whole, whole)
}

// permute applies the bit-reversal permutation in place.
func (p *FFTPlan) permute(a []complex128) {
	sw := p.swap
	for s := 0; s < len(sw); s += 2 {
		i, j := sw[s], sw[s+1]
		a[i], a[j] = a[j], a[i]
	}
}

// stages runs the radix-2 butterflies over a, which must already be in
// bit-reversed order (len(a) a power of two >= 2, tw the plan's twiddles
// for that length).
//
// live names the half of the natural-order input that holds data; the
// other half is taken as +0 and is never read. Bit reversal sends the
// first half of the input to the even slots and the last half to the odd
// slots, so a zero half zeroes one operand of every stage-1 butterfly:
// with the odd slot zero, v = 0·w = +0 and the butterfly is u+0, u−0;
// with the even slot zero, u = +0 and it is 0+v, 0−v. Both are computed
// with those exact operations, so signed zeros come out as in the full
// transform.
//
// keep names the half of the output the caller will read. The last stage
// then computes only its lo (head) or hi (tail) outputs; the other half of
// a is left holding stage garbage. Transforms shorter than 8 compute every
// output regardless.
//
// Stages 1 and 2 run fused with their three twiddles in registers; every
// butterfly still computes u+v and u−v with v = hi·w, per value in the
// same order as the streaming kernel, so all modes are bit-identical to
// the full transform on the values they produce.
func stages(a []complex128, tw []complex128, live, keep part) {
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

// RFFTPlan transforms real signals through a half-length complex FFT: the n
// real samples are packed into n/2 complex bins, transformed, and unpacked
// with the conjugate-symmetry recombination — half the butterflies of the
// full complex transform our signals previously paid for.
//
// The spectrum representation is the standard half spectrum: n/2+1 bins,
// bin 0 (DC) and bin n/2 (Nyquist) real. Like FFTPlan, a plan is immutable
// and safe for concurrent use on distinct data; cached plans come from
// PlanRFFT.
type RFFTPlan struct {
	n    int
	half *FFTPlan
	twF  []complex128 // exp(-2πik/n), k in [0, n/4]
	twI  []complex128 // exp(+2πik/n), k in [0, n/4]
}

// NewRFFTPlan builds a real-transform plan for power-of-two length n >= 2.
func NewRFFTPlan(n int) (*RFFTPlan, error) {
	if !IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("dsp: RFFT plan length %d is not a power of two >= 2", n)
	}
	half, err := NewFFTPlan(n / 2)
	if err != nil {
		return nil, err
	}
	p := &RFFTPlan{n: n, half: half}
	q := n / 4
	p.twF = make([]complex128, q+1)
	p.twI = make([]complex128, q+1)
	for k := 0; k <= q; k++ {
		ang := 2 * math.Pi * float64(k) / float64(n)
		p.twF[k] = cmplx.Rect(1, -ang)
		p.twI[k] = cmplx.Rect(1, ang)
	}
	return p, nil
}

// Bins returns the half-spectrum length n/2 + 1.
func (p *RFFTPlan) Bins() int { return p.n/2 + 1 }

// Forward computes the half spectrum of the n real samples in src into dst
// (length n/2+1). src is not modified; dst and src must not overlap. No
// allocation occurs.
func (p *RFFTPlan) Forward(dst []complex128, src []float64) { p.forward(dst, src, whole) }

// ForwardHead is Forward of the n-sample window [src, 0…0]: len(src) is
// n/2 and the zero tail is implied, never stored or read. The spectrum is
// bit-identical to Forward's on that explicit window (with +0 zeros).
func (p *RFFTPlan) ForwardHead(dst []complex128, src []float64) { p.forward(dst, src, head) }

// ForwardTail is Forward of the n-sample window [0…0, src]: len(src) is
// n/2 and the zero head is implied. The spectrum is bit-identical to
// Forward's on that explicit window (with +0 zeros).
func (p *RFFTPlan) ForwardTail(dst []complex128, src []float64) { p.forward(dst, src, tail) }

// forward packs the live samples straight into their bit-reversed slots
// (the permutation costs no pass of its own) and runs the half-length
// butterflies with the zero half pruned from stage 1.
func (p *RFFTPlan) forward(dst []complex128, src []float64, live part) {
	n := p.n
	want := n
	if live != whole {
		want = n / 2
	}
	if len(src) != want || len(dst) != n/2+1 {
		panic(fmt.Sprintf("dsp: RFFT(%d) called with src %d, dst %d", n, len(src), len(dst)))
	}
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
	stages(z, p.half.twF, live, whole)
	// Unpack in place: bins k and h-k are rebuilt pairwise from Z[k] and
	// Z[h-k]; the Nyquist bin lands in the extra slot beyond the Z region.
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

// Inverse computes the n real samples of the conjugate-symmetric half
// spectrum src (length n/2+1) into dst, with 1/n normalization. The
// transform works in place over src, so src is DESTROYED. The imaginary
// parts of the DC and Nyquist bins are ignored. No allocation occurs.
func (p *RFFTPlan) Inverse(dst []float64, src []complex128) { p.inverse(dst, src, whole) }

// InverseHead is Inverse keeping only the first n/2 output samples:
// len(dst) is n/2 and dst receives exactly Inverse's dst[:n/2], bit for
// bit. The last butterfly stage computes only the half it needs. src is
// destroyed as by Inverse.
func (p *RFFTPlan) InverseHead(dst []float64, src []complex128) { p.inverse(dst, src, head) }

// InverseTail is Inverse keeping only the last n/2 output samples:
// len(dst) is n/2 and dst receives exactly Inverse's dst[n/2:], bit for
// bit. src is destroyed as by Inverse.
func (p *RFFTPlan) InverseTail(dst []float64, src []complex128) { p.inverse(dst, src, tail) }

func (p *RFFTPlan) inverse(dst []float64, src []complex128, keep part) {
	n := p.n
	want := n
	if keep != whole {
		want = n / 2
	}
	if len(dst) != want || len(src) != n/2+1 {
		panic(fmt.Sprintf("dsp: IRFFT(%d) called with dst %d, src %d", n, len(dst), len(src)))
	}
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
	// Repack in place: Z[k] and Z[h-k] are rebuilt pairwise from bins k and
	// h-k (the inverse of Forward's unpack).
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
	stages(z, p.half.twI, whole, keep)
	// Normalize and unpack the kept samples: Z[k] holds samples 2k, 2k+1.
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

// MulSpectra multiplies half spectra element-wise into dst: dst[k] = a[k]·b[k].
// dst may alias a or b. Factored out so spectral products vectorize in one
// place.
func MulSpectra(dst, a, b []complex128) {
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	for k := range a {
		dst[k] = a[k] * b[k]
	}
}

// --- shared plan caches -----------------------------------------------------

var (
	fftPlans  sync.Map // int → *FFTPlan
	rfftPlans sync.Map // int → *RFFTPlan
)

// PlanFFT returns the process-wide cached plan for power-of-two length n.
// It panics on a non-power-of-two length (programmer error: plan-based
// callers control their transform sizes).
func PlanFFT(n int) *FFTPlan {
	if v, ok := fftPlans.Load(n); ok {
		return v.(*FFTPlan)
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		panic(err)
	}
	v, _ := fftPlans.LoadOrStore(n, p)
	return v.(*FFTPlan)
}

// PlanRFFT returns the process-wide cached real-transform plan for
// power-of-two length n >= 2. It panics on an invalid length.
func PlanRFFT(n int) *RFFTPlan {
	if v, ok := rfftPlans.Load(n); ok {
		return v.(*RFFTPlan)
	}
	p, err := NewRFFTPlan(n)
	if err != nil {
		panic(err)
	}
	v, _ := rfftPlans.LoadOrStore(n, p)
	return v.(*RFFTPlan)
}
