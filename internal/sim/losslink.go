package sim

import (
	"fmt"

	"mute/internal/stream"
	"mute/internal/telemetry"
)

// LossTransport routes the forwarded reference through the packetized
// stream layer — framing, an impaired link, optional FEC, and the jitter
// buffer — instead of the ideal sample-synchronous wire. It models a
// digital RF/UDP relay deployment where the reference arrives in frames
// that can be lost, delayed, duplicated, or reordered.
//
// The receiver holds PrimeFrames frames of playout buffering so FEC and
// jittered frames can arrive in time; that buffering consumes lookahead
// sample for sample, so the transport fits deployments whose geometric
// lookahead exceeds PrimeFrames·FrameSamples (the paper's Section 6
// "smart noise source" regime, where the reference is known well ahead).
type LossTransport struct {
	// Link configures the fault injector.
	Link stream.LossParams
	// FrameSamples is the samples per frame (default 80 = 10 ms at 8 kHz).
	FrameSamples int
	// FECGroup enables one parity frame per group of K data frames
	// (0 = off; otherwise 2..stream limits).
	FECGroup int
	// PrimeFrames is the playout buffer depth in frames: frame k is played
	// only after frame k+PrimeFrames was offered to the link. Must cover
	// the FEC group and jitter spread for recovery to land in time.
	PrimeFrames int
	// LossAware selects the canceller's concealment-freeze mode
	// (core.Config.LossAware) when the transport is wired into Run.
	LossAware bool
	// Skew, when non-nil, runs the relay on a skewed oscillator: frames
	// carry relay-clock timestamps while delivery and playout ride the
	// ear clock (see stream.ClockSkew). Composes with Link faults. A
	// zero-skew configuration is bit-identical to leaving Skew nil.
	Skew *stream.SkewParams
	// DriftCorrect inserts the drift estimator + adaptive fractional
	// resampler between the jitter buffer and the playout stream, keeping
	// the reference sample-aligned to the ear clock under Skew. With no
	// actual skew the correction path is bit-identical to the plain
	// transport (pinned by TestDriftCorrectCleanClockIdentity).
	DriftCorrect bool
	// Trace, when non-nil, receives per-playout-window stream events
	// (cumulative jitter/link counters) and lookahead-buffer occupancy on
	// the sample clock, every traceEveryFrames windows. sim.Run propagates
	// its own trace here when the caller left it nil.
	Trace *telemetry.Trace
}

const (
	// jitterDepth is the receiver's jitter-buffer depth in frames.
	jitterDepth = 32
	// traceEveryFrames is the transport's trace cadence in playout
	// windows.
	traceEveryFrames = 16
)

// frameSamples is FrameSamples with its default applied.
func (lt LossTransport) frameSamples() int {
	if lt.FrameSamples == 0 {
		return 80
	}
	return lt.FrameSamples
}

// withDefaults fills zero fields and validates.
func (lt LossTransport) withDefaults() (LossTransport, error) {
	lt.FrameSamples = lt.frameSamples()
	if lt.FrameSamples < 0 || lt.FrameSamples > stream.MaxFrameSamples {
		return lt, fmt.Errorf("sim: frame size %d outside (0, %d]", lt.FrameSamples, stream.MaxFrameSamples)
	}
	if lt.PrimeFrames < 0 {
		return lt, fmt.Errorf("sim: negative prime depth %d", lt.PrimeFrames)
	}
	if lt.Skew != nil {
		if err := lt.Skew.Validate(); err != nil {
			return lt, err
		}
	}
	return lt, nil
}

// PrimeSamples is the playout-buffer latency in samples — the lookahead
// the transport consumes.
func (lt LossTransport) PrimeSamples() int {
	return lt.PrimeFrames * lt.frameSamples()
}

// LossTransportStats aggregates the transport-side counters of one run.
type LossTransportStats struct {
	// Jitter is the receive-side jitter-buffer view (late, duplicate,
	// dropped, concealed samples).
	Jitter stream.JitterStats
	// Link is the fault injector's view (offered, dropped, duplicated...).
	Link stream.LinkStats
	// FECRecovered counts frames reconstructed from parity.
	FECRecovered uint64
	// Drift carries the clock-drift stage's report when the transport ran
	// with Skew or DriftCorrect (nil otherwise).
	Drift *DriftReport
}

// PacketizeReference pushes ref through the packetized transport and
// returns the receiver's reconstruction, time-aligned to the capture
// clock: recv[i] corresponds to ref[i], mask[i] reports whether it is a
// real received sample (false = zero-filled concealment). The caller
// applies the PrimeSamples playout shift. The run is fully deterministic
// for a fixed lt.Link.Seed.
func PacketizeReference(ref []float64, lt LossTransport) ([]float64, []bool, LossTransportStats, error) {
	var stats LossTransportStats
	lt, err := lt.withDefaults()
	if err != nil {
		return nil, nil, stats, err
	}
	if lt.Skew != nil || lt.DriftCorrect {
		// The skewed-clock transport generalizes this one; at zero skew
		// its event interleaving and playout reduce to the loop below
		// bit for bit.
		return packetizeSkewed(ref, lt)
	}
	link, err := stream.NewLossyLink(lt.Link)
	if err != nil {
		return nil, nil, stats, err
	}
	var enc *stream.FECEncoder
	if lt.FECGroup > 0 {
		if enc, err = stream.NewFECEncoder(lt.FECGroup); err != nil {
			return nil, nil, stats, err
		}
	}
	jb, err := stream.NewJitterBuffer(jitterDepth)
	if err != nil {
		return nil, nil, stats, err
	}
	jb.Anchor(0) // the capture epoch is known out of band
	dec := stream.NewFECDecoder(4 * jitterDepth)

	deliver := func(frames []*stream.Frame) {
		for _, f := range frames {
			out := dec.Add(f)
			if out == nil {
				continue
			}
			if out != f {
				stats.FECRecovered++
			}
			jb.Push(out)
		}
	}

	frameN := lt.FrameSamples
	nFrames := (len(ref) + frameN - 1) / frameN
	padded := len(ref)
	if nFrames*frameN != padded {
		padded = nFrames * frameN
	}
	recv := make([]float64, padded)
	mask := make([]bool, padded)
	pop := func(k int) {
		start := k * frameN
		jb.PopMask(recv[start:start+frameN], mask[start:start+frameN])
		if lt.Trace != nil && k%traceEveryFrames == 0 {
			tracePlayout(lt.Trace, int64(start), jb, &stats, frameN)
		}
	}

	seq := uint32(0)
	popped := 0
	for k := 0; k < nFrames; k++ {
		samples := ref[k*frameN : min((k+1)*frameN, len(ref))]
		if len(samples) < frameN {
			full := make([]float64, frameN)
			copy(full, samples)
			samples = full
		}
		f := &stream.Frame{Seq: seq, Timestamp: uint64(k * frameN), Samples: samples}
		seq++
		deliver(link.Transfer(f))
		if enc != nil {
			if parity := enc.Add(f); parity != nil {
				parity.Seq = seq
				seq++
				deliver(link.Transfer(parity))
			}
		}
		if k >= lt.PrimeFrames {
			pop(popped)
			popped++
		}
	}
	// End of stream: everything still in flight lands, then the remaining
	// playout windows drain.
	deliver(link.Drain())
	for ; popped < nFrames; popped++ {
		pop(popped)
	}
	stats.Jitter = jb.Stats()
	stats.Link = link.Stats()
	return recv[:len(ref)], mask[:len(ref)], stats, nil
}

// tracePlayout records the transport's view at one playout window: the
// cumulative jitter-buffer counters (frames late/dropped/concealed as
// first-class series) and the lookahead-buffer occupancy — how many
// frames of forwarded future are sitting between the link and the
// canceller at this instant.
func tracePlayout(tr *telemetry.Trace, t int64, jb *stream.JitterBuffer, stats *LossTransportStats, frameN int) {
	st := jb.Stats()
	tr.Record(t, telemetry.StageStream, "jitter", map[string]float64{
		"frames_received":   float64(st.FramesReceived),
		"frames_late":       float64(st.FramesLate),
		"frames_dropped":    float64(st.FramesDropped),
		"frames_duplicate":  float64(st.FramesDuplicate),
		"samples_concealed": float64(st.SamplesConcealed),
		"samples_delivered": float64(st.SamplesDelivered),
		"fec_recovered":     float64(stats.FECRecovered),
	})
	buffered := jb.Buffered()
	tr.Record(t, telemetry.StageLookahead, "occupancy", map[string]float64{
		"frames":  float64(buffered),
		"samples": float64(buffered * frameN),
	})
}
