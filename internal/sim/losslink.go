package sim

import (
	"fmt"
	"math"

	"mute/internal/dsp"
	"mute/internal/graph"
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
	// ear clock (see stream.ClockSkew). Composes with Link faults. A nil
	// Skew is zero skew; setting it also adds the drift stage's report.
	Skew *stream.SkewParams
	// DriftCorrect steers the drift source's resampler between the jitter
	// buffer and the canceller, holding the reference sample-aligned to
	// the ear clock under Skew; at zero skew it changes no sample.
	DriftCorrect bool
	// Trace, when non-nil, receives per-playout-window stream events
	// (cumulative jitter/link counters) and lookahead-buffer occupancy on
	// the sample clock, every traceEveryFrames windows. When the caller
	// left it nil, sim.Run splices them into its own trace.
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
	if lt.PrimeFrames < 0 || lt.PrimeFrames >= jitterDepth {
		// At jitterDepth frames of prime the buffer overflows before the
		// first pop and evicts most of the stream.
		return lt, fmt.Errorf("sim: prime depth %d outside [0, %d)", lt.PrimeFrames, jitterDepth)
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

// delivery is one frame landing at the ear on the ear clock; drain marks
// the end-of-stream remnant, which lands only at a window start strictly
// after it.
type delivery struct {
	at    float64
	f     *stream.Frame
	drain bool
}

// sendSchedule runs the relay's side — capture on the skewed relay clock
// (a nil Skew is zero skew: frames carry ref's samples unchanged), the
// impaired link, FEC — and returns every delivery in ear-time order.
func sendSchedule(ref []float64, lt LossTransport) ([]delivery, *stream.LossyLink, error) {
	var sp stream.SkewParams
	if lt.Skew != nil {
		sp = *lt.Skew
	}
	cs, err := stream.NewClockSkew(sp)
	if err != nil {
		return nil, nil, err
	}
	link, err := stream.NewLossyLink(lt.Link)
	if err != nil {
		return nil, nil, err
	}
	var enc *stream.FECEncoder
	if lt.FECGroup > 0 {
		if enc, err = stream.NewFECEncoder(lt.FECGroup); err != nil {
			return nil, nil, err
		}
	}
	var sched []delivery
	schedule := func(at float64, frames []*stream.Frame, drain bool) {
		for _, f := range frames {
			sched = append(sched, delivery{at: at, f: f, drain: drain})
		}
	}
	seq := uint32(0)
	rIdx := uint64(0) // relay sample counter — the timestamp clock
	for cs.Pos() < float64(len(ref)) {
		f := &stream.Frame{Seq: seq, Timestamp: rIdx, Samples: cs.Capture(ref, lt.FrameSamples)}
		rIdx += uint64(lt.FrameSamples)
		avail := cs.Pos()
		seq++
		schedule(avail, link.Transfer(f), false)
		if enc != nil {
			if parity := enc.Add(f); parity != nil {
				parity.Seq = seq
				seq++
				schedule(avail, link.Transfer(parity), false)
			}
		}
	}
	schedule(cs.Pos(), link.Drain(), true)
	return sched, link, nil
}

// Transport is the receive side of one packetized run on a simulated ear
// clock, pulled through the stack the live ear binds: a ReceiverSource
// over the jitter buffer, under a DriftSource when the run has a drift
// stage. Before each sample it lands the deliveries due by the sample's
// ear time, s + (PrimeFrames+1)·FrameSamples for stream sample s: FEC
// decode, JitterBuffer.Push, and the estimator's observation of a direct
// data frame. Landing mid-window keeps the buffer margin from sawtoothing
// through zero as skewed arrivals slip against the window grid; at zero
// skew every delivery lands on a window start.
type Transport struct {
	// Drift is the drift stage (nil without Skew or DriftCorrect): bind
	// it as graph.Config.Drift, with the prime booked as PrimeSamples.
	Drift *graph.DriftSource
	// Delay is the pipeline index of stream sample 0: positive plays that
	// many concealed zeros first, negative skips −Delay samples.
	Delay int

	frameN int
	ear    int // ear time of stream sample 0
	n      int // stream length
	next   int // stream index of the next sample through the stack

	sched []delivery
	si    int
	link  *stream.LossyLink
	dec   *stream.FECDecoder
	jb    *stream.JitterBuffer
	stack graph.SampleSource
	stats LossTransportStats
	trace *telemetry.Trace

	x []float64 // scratch for skipped and finishing samples
	m []bool
}

// jitterBuf is the jitter buffer plus the FEC count: a FrameBuffer.
type jitterBuf struct {
	*stream.JitterBuffer
	recovered *uint64
}

func (b jitterBuf) Recovered() uint64 { return *b.recovered }

// PacketizeReference runs ref through the transport's send side and
// returns its receive side, deterministic for a fixed lt.Link.Seed. Skew
// or DriftCorrect adds the drift stage (its resampler only with
// DriftCorrect), which at zero skew changes no sample.
func PacketizeReference(ref []float64, lt LossTransport) (*Transport, error) {
	lt, err := lt.withDefaults()
	if err != nil {
		return nil, err
	}
	sched, link, err := sendSchedule(ref, lt)
	if err != nil {
		return nil, err
	}
	jb, err := stream.NewJitterBuffer(jitterDepth)
	if err != nil {
		return nil, err
	}
	jb.Anchor(0) // the capture epoch is known out of band
	frameN := lt.FrameSamples
	tp := &Transport{
		frameN: frameN,
		ear:    (lt.PrimeFrames + 1) * frameN,
		n:      len(ref),
		sched:  sched,
		link:   link,
		dec:    stream.NewFECDecoder(4 * jitterDepth),
		jb:     jb,
		trace:  lt.Trace,
		x:      make([]float64, frameN),
		m:      make([]bool, frameN),
	}
	recv := &graph.ReceiverSource{Buf: jitterBuf{jb, &tp.stats.FECRecovered}}
	tp.stack = recv
	if lt.Skew != nil || lt.DriftCorrect {
		est, err := stream.NewDriftEstimator(stream.DriftConfig{})
		if err != nil {
			return nil, err
		}
		tp.stats.Drift = &DriftReport{}
		tp.Drift = &graph.DriftSource{Inner: recv, Est: est, Frame: frameN}
		if lt.DriftCorrect {
			tp.Drift.RS = dsp.NewVariRateResampler()
		}
		tp.stack = tp.Drift
	}
	return tp, nil
}

// Pull produces the block starting at pipeline index start; it is short
// at the end of the stream.
func (tp *Transport) Pull(dst []float64, mask []bool, start int64) int {
	s := int(start) - tp.Delay // stream index of dst[0]
	i := 0
	for ; i < len(dst) && s+i < 0; i++ {
		dst[i], mask[i] = 0, false
	}
	tp.skipTo(s + i)
	end := max(i, min(len(dst), tp.n-s))
	tp.play(dst[i:end], mask[i:end])
	return end
}

// play pulls the next len(dst) stream samples through the stack.
func (tp *Transport) play(dst []float64, mask []bool) {
	for i := 0; i < len(dst); {
		s := tp.next
		ear := float64(tp.ear + s)
		tp.deliverDue(ear, s%tp.frameN == 0)
		next := math.Inf(1)
		if tp.si < len(tp.sched) && !tp.sched[tp.si].drain {
			next = tp.sched[tp.si].at
		}
		end := min(len(dst), i+tp.frameN-s%tp.frameN)
		k := i + 1
		for k < end && ear+float64(k-i) < next {
			k++
		}
		tp.stack.Pull(dst[i:k], mask[i:k], int64(s+tp.Delay))
		tp.next += k - i
		if tp.next%tp.frameN == 0 {
			tp.endWindow(tp.next - tp.frameN)
		}
		i = k
	}
}

// skipTo plays the stream up to stream index s, discarding the samples.
func (tp *Transport) skipTo(s int) {
	for tp.next < s {
		k := min(s-tp.next, tp.frameN)
		tp.play(tp.x[:k], tp.m[:k])
	}
}

// deliverDue lands every delivery due at or before ear time t (a send
// tying a window start precedes the pop); the drain remnant lands only at
// a window start strictly after it.
func (tp *Transport) deliverDue(t float64, windowStart bool) {
	for ; tp.si < len(tp.sched); tp.si++ {
		d := tp.sched[tp.si]
		if d.at > t || (d.drain && !(windowStart && d.at < t)) {
			return
		}
		out := tp.dec.Add(d.f)
		if out == nil {
			continue
		}
		if out != d.f {
			tp.stats.FECRecovered++
		}
		tp.jb.Push(out)
		// Only directly delivered data frames feed the slope fit: FEC
		// reconstructions land a group late, so their delivery time says
		// nothing about the relay clock.
		if tp.Drift != nil && out == d.f && !d.f.Parity {
			tp.Drift.Est.Observe(d.f.Timestamp, d.at)
		}
	}
}

// endWindow folds the window starting at stream index start into the
// drift report and, every traceEveryFrames windows, the trace.
func (tp *Transport) endWindow(start int) {
	var w graph.DriftWindow
	if rep := tp.stats.Drift; rep != nil {
		w = tp.Drift.Window()
		if w.Step {
			rep.RateJumps = append(rep.RateJumps, int64(start))
		}
		rep.MaxAbsPPM = max(rep.MaxAbsPPM, math.Abs(w.PPM))
		rep.FinalOccErr = w.OccErr
	}
	if tp.trace != nil && start/tp.frameN%traceEveryFrames == 0 {
		tracePlayout(tp.trace, int64(start), tp.jb, tp.stats.FECRecovered, tp.frameN)
		if tp.Drift != nil {
			traceDrift(tp.trace, int64(start), w)
		}
	}
}

// Finish plays the stream out to its last window end and lands every
// remaining delivery, then returns the run's counters and drift report.
// Call it once, after the last pull.
func (tp *Transport) Finish() LossTransportStats {
	tp.skipTo((tp.n + tp.frameN - 1) / tp.frameN * tp.frameN)
	tp.deliverDue(math.Inf(1), true)
	if tp.Drift != nil {
		tp.stats.Drift.FinalPPM = tp.Drift.Est.PPM()
	}
	tp.stats.Jitter = tp.jb.Stats()
	tp.stats.Link = tp.link.Stats()
	return tp.stats
}

// tracePlayout records the transport's view at one playout window: the
// cumulative jitter-buffer counters (frames late/dropped/concealed as
// first-class series) and the lookahead-buffer occupancy — how many
// frames of forwarded future are sitting between the link and the
// canceller at this instant.
func tracePlayout(tr *telemetry.Trace, t int64, jb *stream.JitterBuffer, fecRecovered uint64, frameN int) {
	st := jb.Stats()
	tr.Record(t, telemetry.StageStream, "jitter", map[string]float64{
		"frames_received":   float64(st.FramesReceived),
		"frames_late":       float64(st.FramesLate),
		"frames_dropped":    float64(st.FramesDropped),
		"frames_duplicate":  float64(st.FramesDuplicate),
		"samples_concealed": float64(st.SamplesConcealed),
		"samples_delivered": float64(st.SamplesDelivered),
		"fec_recovered":     float64(fecRecovered),
	})
	buffered := jb.Buffered()
	tr.Record(t, telemetry.StageLookahead, "occupancy", map[string]float64{
		"frames":  float64(buffered),
		"samples": float64(buffered * frameN),
	})
}
