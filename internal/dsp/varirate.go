package dsp

import "math"

// CubicHermite evaluates the Catmull-Rom cubic through four equally spaced
// samples at fractional position frac ∈ [0, 1) between y0 and y1. At
// frac == 0 it returns y0 exactly (the polynomial reduces to the sample
// itself), which is what lets a unity-rate VariRateResampler be a bit-exact
// passthrough.
func CubicHermite(ym1, y0, y1, y2, frac float64) float64 {
	if frac == 0 {
		return y0
	}
	c1 := 0.5 * (y1 - ym1)
	c2 := ym1 - 2.5*y0 + 2*y1 - 0.5*y2
	c3 := 0.5*(y2-ym1) + 1.5*(y0-y1)
	return ((c3*frac+c2)*frac+c1)*frac + y0
}

// CubicInterpAt evaluates x at a fractional sample position, clamping the
// interpolation taps at the slice edges. Integer positions return the
// sample exactly.
func CubicInterpAt(x []float64, pos float64) float64 {
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	at := func(k int) float64 {
		if k < 0 {
			k = 0
		}
		if k >= len(x) {
			k = len(x) - 1
		}
		return x[k]
	}
	if frac == 0 {
		return at(i)
	}
	return CubicHermite(at(i-1), at(i), at(i+1), at(i+2), frac)
}

// VariRateMaxPPM bounds how far a VariRateResampler's rate may deviate
// from unity — ±2000 ppm covers any plausible pair of crystal oscillators
// with an order of magnitude to spare.
const VariRateMaxPPM = 2000

// VariRateResampler is a streaming continuous-rate fractional resampler
// for clock-drift correction: it consumes input samples (the relay-clock
// reference out of the jitter buffer) and produces output samples on the
// consumer's clock, advancing its input read position by Rate() input
// samples per output sample. Interpolation is Catmull-Rom cubic (a Farrow
// structure with fixed polynomial coefficients), O(1) per sample.
//
// Two properties matter to the drift pipeline:
//
//   - At rate exactly 1.0 starting from position 0, every output position
//     is an integer, the cubic collapses to the identity, and the output —
//     samples and concealment mask alike — is bit-identical to the input
//     with zero added latency. Drift correction left enabled on a clean
//     clock therefore costs nothing.
//
//   - At fractional positions the kernel reads one sample of history and
//     two samples of future relative to the integer read position; Ready
//     reports whether enough input has been pushed. The up-to-2-sample
//     future need is the "drift.resampler" lookahead-budget debit.
//
// Each output sample carries a concealment flag: the AND of the flags of
// the input taps it interpolated over (exactly the input flag at integer
// positions), so concealed stretches stay visible to the loss-aware
// canceller after resampling.
type VariRateResampler struct {
	buf  []float64
	real []bool
	base uint64  // absolute input index of buf[0]
	head uint64  // absolute input index of the next Push
	pos  float64 // absolute input position of the next output
	rate float64
}

// NewVariRateResampler creates a resampler at unity rate.
func NewVariRateResampler() *VariRateResampler {
	return &VariRateResampler{rate: 1}
}

// SetRate sets the input-samples-per-output-sample ratio. Rates are
// clamped to 1 ± VariRateMaxPPM·1e-6; a rate above 1 drains the input
// faster (relay clock fast), below 1 slower.
func (r *VariRateResampler) SetRate(rate float64) {
	lo := 1 - VariRateMaxPPM*1e-6
	hi := 1 + VariRateMaxPPM*1e-6
	if rate < lo {
		rate = lo
	} else if rate > hi {
		rate = hi
	}
	r.rate = rate
}

// Rate returns the current input-per-output ratio.
func (r *VariRateResampler) Rate() float64 { return r.rate }

// Position returns the absolute input position of the next output sample —
// how many input samples the resampler has consumed, fractionally.
func (r *VariRateResampler) Position() float64 { return r.pos }

// Push appends one input sample with its concealment flag (real = a
// genuinely received sample, false = concealed).
func (r *VariRateResampler) Push(x float64, real bool) {
	r.compact()
	r.buf = append(r.buf, x)
	r.real = append(r.real, real)
	r.head++
}

// needAt returns the absolute index of the last input sample an output at
// input position pos reads: floor(pos) at integer positions, floor(pos)+2
// otherwise.
func needAt(pos float64) uint64 {
	i := uint64(pos) // pos >= 0: truncation is floor
	if pos == float64(i) {
		return i
	}
	return i + 2
}

// Ready reports whether enough input has been pushed to produce the next
// output sample.
func (r *VariRateResampler) Ready() bool { return r.head > needAt(r.pos) }

// Need returns how many more input samples must be pushed before the next
// n outputs can be popped at the current rate — exactly what a loop that
// pushes one sample whenever Ready is false pushes over those n Pops, so a
// caller can fetch the input in one run.
func (r *VariRateResampler) Need(n int) int {
	if n <= 0 {
		return 0
	}
	pos := r.pos
	for k := 1; k < n; k++ {
		pos += r.rate // the same additions Pop makes
	}
	if last := needAt(pos); r.head <= last {
		return int(last + 1 - r.head)
	}
	return 0
}

// Pop produces the next output sample. ok is false when Ready() is false
// (nothing is consumed then). real is the AND of the concealment flags of
// the interpolation taps.
func (r *VariRateResampler) Pop() (v float64, real bool, ok bool) {
	if !r.Ready() {
		return 0, false, false
	}
	i := int(r.pos) // pos >= 0: truncation is floor
	frac := r.pos - float64(i)
	if frac == 0 {
		v, real = r.at(i)
	} else {
		ym1, rm1 := r.at(i - 1)
		y0, r0 := r.at(i)
		y1, r1 := r.at(i + 1)
		y2, r2 := r.at(i + 2)
		v = CubicHermite(ym1, y0, y1, y2, frac)
		real = rm1 && r0 && r1 && r2
	}
	r.pos += r.rate
	return v, real, true
}

// at reads the sample at absolute input index k, clamped to the retained
// range (only the leading edge can clamp in practice: history is retained
// one sample past the read position).
func (r *VariRateResampler) at(k int) (float64, bool) {
	if k < int(r.base) {
		k = int(r.base)
	}
	if k >= int(r.head) {
		k = int(r.head) - 1
	}
	return r.buf[uint64(k)-r.base], r.real[uint64(k)-r.base]
}

// compact drops input more than one sample behind the read position once
// enough has accumulated, keeping memory O(1).
func (r *VariRateResampler) compact() {
	keep := uint64(0)
	if r.pos >= 1 {
		keep = uint64(r.pos) - 1 // retain the i-1 history tap (truncation = floor)
	}
	if keep <= r.base || keep-r.base < 64 {
		return
	}
	n := keep - r.base
	r.buf = append(r.buf[:0], r.buf[n:]...)
	r.real = append(r.real[:0], r.real[n:]...)
	r.base = keep
}
