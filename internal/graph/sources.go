package graph

import (
	"mute/internal/dsp"
	"mute/internal/stream"
)

// SliceSource serves a pre-rendered reference stream (and optional
// concealment mask) from memory — the simulator's binding, where the
// transport has already been replayed offline. With a nil Mask every
// sample is real.
type SliceSource struct {
	Samples []float64
	Mask    []bool
	pos     int
}

// Pull copies the next block of samples; the returned count is short at
// the end of the stream.
func (s *SliceSource) Pull(dst []float64, mask []bool, _ int64) int {
	n := copy(dst, s.Samples[s.pos:])
	if s.Mask != nil {
		copy(mask[:n], s.Mask[s.pos:s.pos+n])
	} else {
		for i := range mask[:n] {
			mask[i] = true
		}
	}
	s.pos += n
	return n
}

// SliceAmbient serves pre-rendered acoustics from memory: the open-ear
// field and the under-cup field at each sample index — the simulator's
// room-model binding.
type SliceAmbient struct {
	Local []float64
	Cup   []float64
	pos   int
}

// Next returns the coincident ambient block, without a copy, and
// advances.
func (a *SliceAmbient) Next(x []float64) (local, cup []float64) {
	end := a.pos + len(x)
	local, cup = a.Local[a.pos:end:end], a.Cup[a.pos:end:end]
	a.pos = end
	return
}

// DerivedAmbient synthesizes the acoustic leg from the reference itself —
// the live demo's binding: the wavefront whose sound the radio forwarded
// arrives Delay samples later, shaped by a small multipath Channel. The
// open-ear and under-cup fields coincide (the live demo wears no cup).
type DerivedAmbient struct {
	Delay   *dsp.DelayLine
	Channel *dsp.StreamConvolver

	out []float64 // block scratch, grown to the largest block
}

// Next derives the ambient block from the reference block. The channel
// runs first, a block at a time (FilterInto equals per-sample Process bit
// for bit), and the delay line then runs in place: both are linear and
// time-invariant, so the order changes no bit of the output.
func (a *DerivedAmbient) Next(x []float64) (local, cup []float64) {
	if len(a.out) < len(x) {
		a.out = make([]float64, len(x))
	}
	out := a.out[:len(x)]
	a.Channel.FilterInto(out, x)
	for i, v := range out {
		out[i] = a.Delay.Process(v)
	}
	return out, out
}

// FrameBuffer is the jitter-buffer face a live reference source drains:
// the network Receiver satisfies it, and tests substitute an in-process
// JitterBuffer.
type FrameBuffer interface {
	// PopMask drains ordered samples plus the concealment mask.
	PopMask(dst []float64, mask []bool) int
	// Stats returns the jitter-buffer counters.
	Stats() stream.JitterStats
	// Buffered returns the frames waiting in the buffer.
	Buffered() int
	// Recovered returns how many lost frames FEC reconstructed.
	Recovered() uint64
}

// ReceiverSource adapts a jitter-buffered frame stream to a pulled
// sample source. Missing samples surface as concealed (mask false)
// zeros, so the pull always fills the block — a live pipeline never
// stalls on the network.
type ReceiverSource struct {
	Buf FrameBuffer
}

// Pull drains one block from the jitter buffer.
func (s *ReceiverSource) Pull(dst []float64, mask []bool, _ int64) int {
	s.Buf.PopMask(dst, mask)
	return len(dst)
}

// Close forwards Pipeline.Close to the frame buffer when it owns a
// closable resource (a pooled session buffer, a network receiver): the
// buffer must get the chance to hand retained frames back to their pool.
func (s *ReceiverSource) Close() error {
	if c, ok := s.Buf.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Stats implements StreamStats for the per-block live hooks.
func (s *ReceiverSource) Stats() stream.JitterStats { return s.Buf.Stats() }

// Buffered implements StreamStats.
func (s *ReceiverSource) Buffered() int { return s.Buf.Buffered() }

// Recovered implements StreamStats.
func (s *ReceiverSource) Recovered() uint64 { return s.Buf.Recovered() }

// DriftSource slaves an inner reference source to the local sample
// clock: jitter-buffer output is consumed at the estimated relay rate
// (1 + ppm·1e-6 input samples per output sample) through a continuous-
// rate resampler. Until the estimator locks, the rate stays exactly 1
// and the resampler is a bit-exact passthrough. The rate is re-steered
// once per pulled block, matching the estimator's frame-grained view.
type DriftSource struct {
	Inner SampleSource
	Est   *stream.DriftEstimator
	RS    *dsp.VariRateResampler

	v [1]float64
	m [1]bool
}

// Pull produces one consumer-clock block.
func (s *DriftSource) Pull(dst []float64, mask []bool, start int64) int {
	if s.Est.Locked() {
		s.RS.SetRate(1 + s.Est.PPM()*1e-6)
	}
	for i := range dst {
		for !s.RS.Ready() {
			s.Inner.Pull(s.v[:], s.m[:], start+int64(i))
			s.RS.Push(s.v[0], s.m[0])
		}
		dst[i], mask[i], _ = s.RS.Pop()
	}
	return len(dst)
}

// DriftState implements DriftStats for the per-block live hooks.
func (s *DriftSource) DriftState() (estPPM, rawPPM, ratePPM float64, locked bool) {
	return s.Est.PPM(), s.Est.RawPPM(), (s.RS.Rate() - 1) * 1e6, s.Est.Locked()
}

// Stats forwards StreamStats from the wrapped source (zero counters when
// it has none), so stacking the drift stage keeps the jitter counters
// observable.
func (s *DriftSource) Stats() stream.JitterStats {
	if ss, ok := s.Inner.(StreamStats); ok {
		return ss.Stats()
	}
	return stream.JitterStats{}
}

// Buffered forwards StreamStats.
func (s *DriftSource) Buffered() int {
	if ss, ok := s.Inner.(StreamStats); ok {
		return ss.Buffered()
	}
	return 0
}

// Recovered forwards StreamStats.
func (s *DriftSource) Recovered() uint64 {
	if ss, ok := s.Inner.(StreamStats); ok {
		return ss.Recovered()
	}
	return 0
}
