package sim

import (
	"fmt"
	"math"

	"mute/internal/dsp"
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
	// DriftCorrect inserts the drift estimator + adaptive fractional
	// resampler between the jitter buffer and the playout stream, keeping
	// the reference sample-aligned to the ear clock under Skew. At zero
	// skew it changes no sample (TestDriftCorrectCleanClockIdentity).
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

// PacketizeReference pushes ref through the packetized transport and
// returns the receiver's reconstruction, time-aligned to the capture
// clock: recv[i] corresponds to ref[i], mask[i] reports whether it is a
// real received sample (false = zero-filled concealment). The caller
// applies the PrimeSamples playout shift. The run is fully deterministic
// for a fixed lt.Link.Seed.
//
// The relay captures its samples at the ear-clock positions
// stream.ClockSkew dictates (a nil Skew is zero skew), frames carry
// relay-sample timestamps, and every transport event — send, delivery,
// playout — is interleaved on the ear clock. At zero skew every capture
// position is an exact integer, so frames carry ref's samples unchanged
// and every delivery lands on a window start.
//
// A drift stage exists only when Skew or DriftCorrect is set: a
// DriftEstimator then watches delivered data frames, stats.Drift reports
// it window by window, and the trace gains drift-stage events. With
// DriftCorrect a VariRateResampler between the jitter buffer and the
// playout stream consumes input at the estimated relay rate, holding the
// reference sample-aligned to the ear. At zero skew the estimator reads
// exactly slope 1, the rate stays exactly 1 and the resampler is an exact
// passthrough, so the drift stage changes no sample.
func PacketizeReference(ref []float64, lt LossTransport) ([]float64, []bool, LossTransportStats, error) {
	var stats LossTransportStats
	lt, err := lt.withDefaults()
	if err != nil {
		return nil, nil, stats, err
	}
	var sp stream.SkewParams
	if lt.Skew != nil {
		sp = *lt.Skew
	}
	cs, err := stream.NewClockSkew(sp)
	if err != nil {
		return nil, nil, stats, err
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
	var est *stream.DriftEstimator
	var rs *dsp.VariRateResampler
	if lt.Skew != nil || lt.DriftCorrect {
		if est, err = stream.NewDriftEstimator(stream.DriftConfig{}); err != nil {
			return nil, nil, stats, err
		}
		stats.Drift = &DriftReport{Corrected: lt.DriftCorrect}
		if lt.DriftCorrect {
			rs = dsp.NewVariRateResampler()
		}
	}
	rep := stats.Drift

	frameN := lt.FrameSamples
	prime := lt.PrimeFrames
	n := len(ref)
	nPops := (n + frameN - 1) / frameN
	recv := make([]float64, nPops*frameN)
	mask := make([]bool, nPops*frameN)

	// Phase 1 — capture and send. The relay's side of the run is
	// independent of playout, so every link event is computed up front and
	// recorded, frame by frame, with its ear-clock delivery time; playout
	// then consumes the schedule. A window pops at tPop but its i-th sample
	// renders at ear time tPop+i, so a frame landing mid-window is in time
	// for the samples after its arrival — without this, the sub-frame
	// phase between the arrival lattice (period F/(1+skew)) and the pop
	// lattice (period F) slips through a whole frame every F/|skew·1e-6|
	// samples and the buffer margin sawtooths through zero, concealing a
	// burst of samples once per cycle. Per-sample delivery keeps the
	// margin at about prime·F at every phase.
	type delivery struct {
		at float64
		f  *stream.Frame
		// drain marks the end-of-stream remnant: windows due by then play
		// out first, so it is held until the next window start after at.
		drain bool
	}
	var sched []delivery
	schedule := func(at float64, frames []*stream.Frame, drain bool) {
		for _, f := range frames {
			sched = append(sched, delivery{at: at, f: f, drain: drain})
		}
	}
	seq := uint32(0)
	rIdx := uint64(0) // relay sample counter — the timestamp clock
	for cs.Pos() < float64(n) {
		f := &stream.Frame{Seq: seq, Timestamp: rIdx, Samples: cs.Capture(ref, frameN)}
		rIdx += uint64(frameN)
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

	// Phase 2 — playout. Deliveries due at or before an event time land
	// first (a send tying a window start precedes the pop); the drain
	// remnant waits for a strictly later window start.
	now := 0.0 // ear-clock time of the delivery being made
	si := 0
	deliverDue := func(t float64, windowStart bool) {
		for ; si < len(sched); si++ {
			d := sched[si]
			if d.at > t || (d.drain && !(windowStart && d.at < t)) {
				return
			}
			now = d.at
			out := dec.Add(d.f)
			if out == nil {
				continue
			}
			if out != d.f {
				stats.FECRecovered++
			}
			jb.Push(out)
			// Only directly delivered data frames feed the slope fit: FEC
			// reconstructions land a group late, so their delivery time
			// says nothing about the relay clock.
			if est != nil && out == d.f && !d.f.Parity {
				est.Observe(d.f.Timestamp, now)
			}
		}
	}
	occSm := 0.0
	lastOcc := 0.0
	// The resampler's input for one run of a window.
	var pulled []float64
	var pulledMask []bool
	for j := 0; j < nPops; j++ {
		start := j * frameN
		tPop := float64((j + prime + 1) * frameN)
		deliverDue(tPop, true)
		estPPM, fresh := 0.0, false
		if est != nil {
			estPPM, fresh = est.PPM(), est.Estimable(tPop)
		}
		rate := 1.0
		if rs != nil {
			occ := 0.0
			if est.Observations() > 0 {
				// Occupancy error against the estimator's fitted timestamp
				// line, extrapolated from the newest observation to this
				// pop: the target keeps the read position the playout
				// prime plus one in-flight frame behind the relay's clock.
				// Extrapolating (rather than reading the newest delivered
				// timestamp) makes the measure loss-robust — a dropped
				// frame never perturbs the line — and exactly 0 at zero
				// skew, where the line's slope is exactly 1.
				horizon := float64(est.LastTimestamp()) + float64(frameN) +
					(tPop-est.LastArrival())*(1+est.PPM()*1e-6)
				occ = horizon - rs.Position() - float64((prime+1)*frameN)
			}
			occSm += 0.125 * (occ - occSm)
			lastOcc = occ
			corr := estPPM
			if fresh {
				ph := occSm
				if ph > 40 {
					ph = 40
				} else if ph < -40 {
					ph = -40
				}
				corr += ph * stream.DriftPhaseGainPPM
			}
			rs.SetRate(1 + corr*1e-6)
			rate = rs.Rate()
		}
		// Play the window in runs that end where the next delivery is due,
		// so sample i still sees every frame landed by tPop+i. At zero skew
		// no delivery falls inside a window, which then plays whole. With
		// the resampler, a run pulls the input its outputs consume in one
		// pop: no delivery lands between those samples, so it is the input
		// a pop per Ready miss would see.
		for i := 0; i < frameN; {
			next := math.Inf(1)
			if si < len(sched) && !sched[si].drain {
				next = sched[si].at
			}
			k := i + 1
			for k < frameN && tPop+float64(k) < next {
				k++
			}
			if rs == nil {
				jb.PopMask(recv[start+i:start+k], mask[start+i:start+k])
			} else {
				need := rs.Need(k - i)
				if need > len(pulled) {
					pulled = make([]float64, need)
					pulledMask = make([]bool, need)
				}
				if need > 0 {
					jb.PopMask(pulled[:need], pulledMask[:need])
					for q := 0; q < need; q++ {
						rs.Push(pulled[q], pulledMask[q])
					}
				}
				for q := i; q < k; q++ {
					recv[start+q], mask[start+q], _ = rs.Pop()
				}
			}
			if k < frameN {
				deliverDue(tPop+float64(k), false)
			}
			i = k
		}
		if rep != nil {
			rep.observe(DriftWindow{
				AtSample: int64(start),
				PPM:      estPPM,
				RatePPM:  (rate - 1) * 1e6,
				OccErr:   lastOcc,
				Locked:   fresh,
			}, est.StepSuspected())
		}
		if lt.Trace != nil && j%traceEveryFrames == 0 {
			tracePlayout(lt.Trace, int64(start), jb, &stats, frameN)
			if rep != nil {
				traceDrift(lt.Trace, int64(start), estPPM, rate, lastOcc, fresh)
			}
		}
	}
	// Anything still scheduled (a remnant landing after the last window)
	// lands too, so the counters and the drift report cover the full
	// stream.
	deliverDue(math.Inf(1), true)

	if rep != nil {
		rep.FinalPPM = est.PPM()
		rep.Locked = est.Locked()
		rep.FinalOccErr = lastOcc
	}
	stats.Jitter = jb.Stats()
	stats.Link = link.Stats()
	return recv[:n], mask[:n], stats, nil
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
