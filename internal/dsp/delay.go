package dsp

import "fmt"

// DelayLine is a fixed-length integer-sample delay used to model acoustic
// propagation, converter latency, and the deliberate delayed-line buffer the
// paper uses to emulate shorter lookahead (Section 5.2, Figure 16).
type DelayLine struct {
	buf []float64
	pos int
}

// NewDelayLine creates a delay of n samples (n >= 0). A zero-length delay
// passes samples through unchanged.
func NewDelayLine(n int) (*DelayLine, error) {
	if n < 0 {
		return nil, fmt.Errorf("dsp: negative delay %d", n)
	}
	return &DelayLine{buf: make([]float64, n)}, nil
}

// Process pushes x and returns the sample delayed by the line length.
func (d *DelayLine) Process(x float64) float64 {
	if len(d.buf) == 0 {
		return x
	}
	out := d.buf[d.pos]
	d.buf[d.pos] = x
	d.pos++
	if d.pos == len(d.buf) {
		d.pos = 0
	}
	return out
}

// Len returns the delay length in samples.
func (d *DelayLine) Len() int { return len(d.buf) }

// Reset zeroes the delay contents.
func (d *DelayLine) Reset() {
	for i := range d.buf {
		d.buf[i] = 0
	}
	d.pos = 0
}

// FractionalDelayFIR returns an FIR approximation of a (possibly
// non-integer) delay of d samples using 4-point Lagrange interpolation
// around the integer part. The returned taps have length floor(d)+4 (or the
// minimum needed), and applying them delays a signal by d samples with flat
// response well below Nyquist. Used by the image-source room model, where
// echo path lengths rarely land on sample boundaries.
func FractionalDelayFIR(d float64) ([]float64, error) {
	if d < 0 {
		return nil, fmt.Errorf("dsp: negative fractional delay %g", d)
	}
	di := int(d)
	frac := d - float64(di)
	// Center the 4-tap Lagrange kernel so its group delay is 1+frac
	// samples; shift the integer part accordingly.
	base := di - 1
	if base < 0 {
		base = 0
		// For d < 1 fall back to a 4-tap kernel anchored at 0 whose
		// group delay is d exactly (Lagrange on points 0..3).
		return lagrange4(d), nil
	}
	k := lagrange4(1 + frac)
	taps := make([]float64, base+len(k))
	copy(taps[base:], k)
	return taps, nil
}

// lagrange4 returns the 4 Lagrange interpolation coefficients for a delay
// of mu samples, mu in [0, 3].
func lagrange4(mu float64) []float64 {
	h := make([]float64, 4)
	for n := 0; n < 4; n++ {
		v := 1.0
		for k := 0; k < 4; k++ {
			if k == n {
				continue
			}
			v *= (mu - float64(k)) / (float64(n) - float64(k))
		}
		h[n] = v
	}
	return h
}

// LookaheadBuffer exposes a sliding window over a sample stream with access
// to samples that have been received (over RF) but whose acoustic wavefront
// has not yet arrived. Index 0 is the "current" sample; positive indices
// peek into the future up to the configured lookahead.
//
// This is the data structure that makes LANC's non-causal taps realizable:
// the wireless channel delivers x(t+N) while the acoustic channel is still
// delivering x(t).
//
// Internally the buffer is a double-write ring: storage is twice the window
// length and every sample is written to two slots a window apart, so the
// live window is always available as one contiguous slice (see View) and
// Push costs O(1) instead of the O(window) shift of a linear register.
type LookaheadBuffer struct {
	buf       []float64 // 2*win storage; window = buf[pos : pos+win]
	win       int       // history + lookahead + 1
	pos       int       // ring write cursor in [0, win)
	lookahead int       // samples of future available
	history   int       // samples of past retained
}

// NewLookaheadBuffer creates a buffer retaining history past samples and
// lookahead future samples around the current position.
func NewLookaheadBuffer(history, lookahead int) (*LookaheadBuffer, error) {
	if history < 0 || lookahead < 0 {
		return nil, fmt.Errorf("dsp: negative buffer size (history=%d lookahead=%d)", history, lookahead)
	}
	win := history + lookahead + 1
	return &LookaheadBuffer{
		buf:       make([]float64, 2*win),
		win:       win,
		lookahead: lookahead,
		history:   history,
	}, nil
}

// Push inserts the newest (most future) sample and advances the current
// position by one. Until lookahead+1 samples have been pushed, the current
// sample and its history are still the zeros the buffer was primed with.
func (l *LookaheadBuffer) Push(x float64) {
	l.buf[l.pos] = x
	l.buf[l.pos+l.win] = x
	l.pos++
	if l.pos == l.win {
		l.pos = 0
	}
}

// At returns the sample at signed offset k from the current position:
// k=0 is current, k>0 future (k <= Lookahead), k<0 past (−k <= History).
// Offsets outside the window return 0.
func (l *LookaheadBuffer) At(k int) float64 {
	idx := l.history + k
	if idx < 0 || idx >= l.win {
		return 0
	}
	return l.buf[l.pos+idx]
}

// View returns the samples for offsets [lo, hi] as a zero-copy slice s with
// s[j] = At(lo+j). The offsets must lie within [-History, +Lookahead]. The
// slice aliases the ring storage: it is read-only and invalidated by the
// next Push. This is the accessor the per-sample kernels use to turn
// tap loops into contiguous array walks.
func (l *LookaheadBuffer) View(lo, hi int) []float64 {
	if lo < -l.history || hi > l.lookahead || lo > hi {
		panic(fmt.Sprintf("dsp: view [%d, %d] outside buffer window [%d, %d]",
			lo, hi, -l.history, l.lookahead))
	}
	start := l.pos + l.history + lo
	return l.buf[start : start+hi-lo+1]
}

// Reset clears the buffer contents and priming state.
func (l *LookaheadBuffer) Reset() {
	for i := range l.buf {
		l.buf[i] = 0
	}
	l.pos = 0
}
