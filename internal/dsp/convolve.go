package dsp

import "slices"

// Convolve returns the full linear convolution of x and h
// (length len(x)+len(h)-1). It picks the direct or FFT algorithm based on
// the problem size.
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	// Direct convolution wins for short kernels; the crossover is broad,
	// 64 is a safe, conservative pick for float64 on modern CPUs.
	if len(h) <= 64 || len(x) <= 64 {
		return convolveDirect(x, h)
	}
	return convolveFFT(x, h)
}

// ConvolveSame convolves x with h and returns only the first len(x)
// samples — the causal "filtered signal" view used when h is an impulse
// response applied to a stream.
func ConvolveSame(x, h []float64) []float64 {
	full := Convolve(x, h)
	if len(full) > len(x) {
		full = full[:len(x)]
	}
	return full
}

func convolveDirect(x, h []float64) []float64 {
	out := make([]float64, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

// convolveFFT runs the product through the cached full-complex plan with
// pooled scratch; only the result slice is allocated. The full-complex
// transform (not RFFT) keeps the samples bit-identical to the seed
// implementation, which the golden traces pin.
func convolveFFT(x, h []float64) []float64 {
	outLen := len(x) + len(h) - 1
	n := NextPow2(outLen)
	p := PlanFFT(n)
	cx := getComplex(n)
	ch := getComplex(n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	for i, v := range h {
		ch[i] = complex(v, 0)
	}
	p.Forward(cx)
	p.Forward(ch)
	MulSpectra(cx, cx, ch)
	p.Inverse(cx)
	out := make([]float64, outLen)
	for i := range out {
		out[i] = real(cx[i])
	}
	putComplex(ch)
	putComplex(cx)
	return out
}

// StreamConvolver applies a fixed FIR impulse response to an unbounded
// sample stream one sample at a time, maintaining internal history.
// It models an acoustic or electrical channel in the sample-clock simulator.
//
// History is kept as a double-write ring (2*len(h) storage, each sample
// written to two slots len(h) apart) so the per-sample tap loop walks one
// contiguous slice with no wrap branch.
//
// Process and FilterInto are exact: FilterInto over a block is len(x)
// Process calls bit for bit, only faster, because several outputs share
// each pass over the taps. ProcessBlock is not exact for long impulse
// responses on long blocks: it switches to partitioned overlap-save
// convolution through the cached FFT plan (matching the per-sample loop to
// floating-point accuracy), which is how the simulator pre-renders room
// channels. All overlap-save scratch is owned by the struct, so the
// steady-state block path performs no allocation when driven through
// ProcessBlockInto.
type StreamConvolver struct {
	h    []float64
	rev  []float64 // h reversed: rev[k] multiplies slot k of Process's window
	hist []float64 // double-write ring, len == 2*len(h)
	pos  int       // write cursor in [0, len(h))

	// Lazily built overlap-save plan and scratch for the block path.
	plan *FFTPlan
	fftH []complex128 // FFT of h at size fftN
	fftN int          // FFT length (power of two)
	step int          // fresh samples produced per FFT block
	seg  []complex128 // segment transform scratch, len fftN
	ext  []float64    // history-prefixed input scratch, grows to fit
}

// olsMinKernel is the impulse-response length above which ProcessBlock
// switches from the per-sample loop to partitioned overlap-save. Short
// kernels are faster direct; the crossover is broad and this is a
// conservative pick (compare Convolve's direct/FFT threshold).
const olsMinKernel = 96

// NewStreamConvolver builds a streaming convolver for impulse response h.
// A nil or empty h behaves as a zero channel (output always 0).
func NewStreamConvolver(h []float64) *StreamConvolver {
	hc := make([]float64, len(h))
	copy(hc, h)
	rev := slices.Clone(hc)
	slices.Reverse(rev)
	return &StreamConvolver{h: hc, rev: rev, hist: make([]float64, 2*len(h))}
}

// Process consumes one input sample and returns the convolved output sample.
func (s *StreamConvolver) Process(x float64) float64 {
	m := len(s.h)
	if m == 0 {
		return 0
	}
	s.hist[s.pos] = x
	s.hist[s.pos+m] = x
	// The mirrored slot makes win[k] = x[t-(m-1-k)] for all k in [0, m),
	// the sample that rev[k] = h[m-1-k] multiplies.
	win := s.hist[s.pos+1 : s.pos+m+1 : s.pos+m+1]
	rev := s.rev[:len(win)]
	var acc float64
	// Unrolled with a single accumulator and sequential adds from h[0]
	// (the top of rev) down: the summation order is exactly the rolled tap
	// loop's, which FilterInto keeps too, so the output bits match. The
	// 4-wide subslices carry no bounds checks.
	k := len(rev)
	for ; k >= 4; k -= 4 {
		r4 := rev[k-4 : k : k]
		w4 := win[k-4 : k : k]
		acc += r4[3] * w4[3]
		acc += r4[2] * w4[2]
		acc += r4[1] * w4[1]
		acc += r4[0] * w4[0]
	}
	// The last k < 4 taps, in the same order and with no loop: a kernel
	// shorter than 4 taps (the ear's 3-tap secondary path, filtered once
	// per sample) runs only this.
	r, w := rev[:k:k], win[:k:k]
	switch k {
	case 3:
		acc += r[2] * w[2]
		acc += r[1] * w[1]
		acc += r[0] * w[0]
	case 2:
		acc += r[1] * w[1]
		acc += r[0] * w[0]
	case 1:
		acc += r[0] * w[0]
	}
	s.pos++
	if s.pos == m {
		s.pos = 0
	}
	return acc
}

// ProcessBlock convolves a whole block, returning one output per input.
// Long impulse responses on long blocks take the partitioned overlap-save
// path; results match the per-sample loop to floating-point accuracy and
// the streaming history stays consistent, so Process/ProcessBlock calls can
// be interleaved freely.
func (s *StreamConvolver) ProcessBlock(x []float64) []float64 {
	out := make([]float64, len(x))
	s.ProcessBlockInto(out, x)
	return out
}

// ProcessBlockInto is ProcessBlock writing into caller-owned storage.
// len(out) must equal len(x); out must not alias the convolver's internals.
// Steady-state calls with a stable block size allocate nothing.
func (s *StreamConvolver) ProcessBlockInto(out, x []float64) {
	if len(out) != len(x) {
		panic("dsp: StreamConvolver.ProcessBlockInto length mismatch")
	}
	if len(s.h) >= olsMinKernel && len(x) >= 2*len(s.h) {
		s.processOverlapSave(out, x)
		return
	}
	s.FilterInto(out, x)
}

// FilterInto is exactly len(x) Process calls: out[i] = Process(x[i]) bit
// for bit, and the streaming history ends as Process would leave it, so
// the two interleave freely. It never takes the overlap-save path. Each
// output keeps its own accumulator and sums its taps in Process's order,
// but four outputs share each pass over the taps, so four independent add
// chains run side by side instead of one dependent chain per sample. It
// reads the history ring and x in place and allocates nothing. len(out)
// must equal len(x), and out must overlap neither x nor the convolver's
// internals.
func (s *StreamConvolver) FilterInto(out, x []float64) {
	if len(out) != len(x) {
		panic("dsp: StreamConvolver.FilterInto length mismatch")
	}
	m := len(s.h)
	if m == 0 {
		clear(out)
		return
	}
	h := s.h
	// The input n samples into the block is x[n] for n >= 0 and, for
	// -m <= n < 0, the history sample old[m+n]: the double-write mirror
	// keeps the last m inputs contiguous and chronological from pos.
	old := s.hist[s.pos : s.pos+m : s.pos+m]
	i := 0
	for ; i+3 < len(x); i += 4 {
		// Output i+k reads input i+k-j at tap j, so each tap slides the
		// four outputs' window one input back: it loads one new sample
		// (from x while i-j >= 0, then from the history) and carries the
		// other three in registers.
		var a0, a1, a2, a3 float64
		c1, c2, c3 := x[i+1], x[i+2], x[i+3]
		jb := min(i+1, m)
		for j := 0; j < jb; j++ {
			hj, v := h[j], x[i-j]
			a0 += hj * v
			a1 += hj * c1
			a2 += hj * c2
			a3 += hj * c3
			c1, c2, c3 = v, c1, c2
		}
		for j := jb; j < m; j++ {
			hj, v := h[j], old[m+i-j]
			a0 += hj * v
			a1 += hj * c1
			a2 += hj * c2
			a3 += hj * c3
			c1, c2, c3 = v, c1, c2
		}
		out[i], out[i+1], out[i+2], out[i+3] = a0, a1, a2, a3
	}
	for ; i < len(x); i++ {
		var acc float64
		jb := min(i+1, m)
		for j := 0; j < jb; j++ {
			acc += h[j] * x[i-j]
		}
		for j := jb; j < m; j++ {
			acc += h[j] * old[m+i-j]
		}
		out[i] = acc
	}

	// Leave the ring as Process would: the last min(len(x), m) inputs in
	// the slots their pushes would have written, and the cursor advanced.
	first := max(len(x)-m, 0)
	slot := (s.pos + first) % m
	for _, v := range x[first:] {
		s.hist[slot] = v
		s.hist[slot+m] = v
		if slot++; slot == m {
			slot = 0
		}
	}
	s.pos = (s.pos + len(x)) % m
}

// ensurePlan builds (once) the FFT plan and scratch for the overlap-save path.
func (s *StreamConvolver) ensurePlan() {
	if s.fftH != nil {
		return
	}
	n := NextPow2(4 * len(s.h))
	if n < 1024 {
		n = 1024
	}
	s.fftN = n
	s.step = n - (len(s.h) - 1)
	s.fftH = FFTReal(s.h, n)
	s.plan = PlanFFT(n)
	s.seg = make([]complex128, n)
}

// processOverlapSave runs partitioned overlap-save: the input (prefixed
// with the streaming history) is cut into overlapping FFT-sized segments,
// each multiplied by the cached kernel spectrum, and the alias-free tail of
// every inverse transform is the output. One O(n log n) pass per block
// replaces len(h) multiplies per sample.
func (s *StreamConvolver) processOverlapSave(out, x []float64) {
	s.ensurePlan()
	m := len(s.h)
	overlap := m - 1
	// ext = [last m-1 inputs, x...] so segment b sees the history it needs.
	if cap(s.ext) < overlap+len(x) {
		s.ext = make([]float64, overlap+len(x))
	}
	ext := s.ext[:overlap+len(x)]
	for i := 0; i < overlap; i++ {
		// Chronological history: the sample j pushes ago lives at
		// pos-1-j (mod m); the double-write mirror makes pos+m-1-j safe.
		ext[i] = s.hist[s.pos+m-overlap+i]
	}
	copy(ext[overlap:], x)

	seg := s.seg
	for b := 0; b < len(x); b += s.step {
		n := len(ext) - b
		if n > s.fftN {
			n = s.fftN
		}
		for i, v := range ext[b : b+n] {
			seg[i] = complex(v, 0)
		}
		for i := n; i < s.fftN; i++ {
			seg[i] = 0
		}
		s.plan.Forward(seg)
		MulSpectra(seg, seg, s.fftH)
		s.plan.Inverse(seg)
		// The first overlap outputs are circularly aliased; the rest are
		// exact linear convolution.
		lim := min(s.step, len(x)-b)
		for i := 0; i < lim; i++ {
			out[b+i] = real(seg[overlap+i])
		}
	}

	// Restore the streaming history: the last m inputs, chronologically,
	// with the write cursor on the oldest slot.
	tail := ext[len(ext)-m:]
	copy(s.hist[:m], tail)
	copy(s.hist[m:], tail)
	s.pos = 0
}

// Reset clears the convolver history.
func (s *StreamConvolver) Reset() {
	for i := range s.hist {
		s.hist[i] = 0
	}
	s.pos = 0
}
