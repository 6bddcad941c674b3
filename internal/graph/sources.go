package graph

import (
	"mute/internal/dsp"
	"mute/internal/stream"
)

// SliceSource serves a pre-rendered reference stream from memory, every
// sample real — the simulator's binding for the ideal wire.
type SliceSource struct {
	Samples []float64
	pos     int
}

// Pull copies the next block of samples; the returned count is short at
// the end of the stream.
func (s *SliceSource) Pull(dst []float64, mask []bool, _ int64) int {
	n := copy(dst, s.Samples[s.pos:])
	for i := range mask[:n] {
		mask[i] = true
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
	// PlayoutClock returns the relay timestamp of the next sample PopMask
	// hands out (see stream.JitterBuffer.PlayoutClock).
	PlayoutClock() uint64
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

// PlayoutClock forwards the buffer's playout clock.
func (s *ReceiverSource) PlayoutClock() uint64 { return s.Buf.PlayoutClock() }

// Tap passes an inner source through and records every sample and flag
// it hands on: the simulator's view of the reference as the pipeline
// pulled it, for post-run traces and scoring.
type Tap struct {
	Inner   SampleSource
	Samples []float64
	Mask    []bool
}

// Pull pulls from the inner source and records the block.
func (t *Tap) Pull(dst []float64, mask []bool, start int64) int {
	n := t.Inner.Pull(dst, mask, start)
	t.Samples = append(t.Samples, dst[:n]...)
	t.Mask = append(t.Mask, mask[:n]...)
	return n
}
