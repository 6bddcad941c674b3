package sim

import (
	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

// DriftWindow is the drift stage's view at one playout window: the
// filtered skew estimate, the resampler rate actually applied (0 ppm in
// the naive/supervised policies, which run the estimator but not the
// resampler), and the buffer-occupancy error steering the phase term.
type DriftWindow struct {
	// AtSample is the window's first sample on the receiver clock, before
	// the playout-prime shift the caller applies.
	AtSample int64
	// PPM is the filtered skew estimate at the window.
	PPM float64
	// RatePPM is the resampler's applied rate deviation, (rate−1)·1e6.
	RatePPM float64
	// OccErr is the occupancy error in samples: how far the resampler's
	// read position lags its target behind the newest delivered timestamp.
	OccErr float64
	// Locked reports the estimate was locked and fresh enough to steer
	// with (stream.DriftEstimator.Estimable) at the window.
	Locked bool
}

// DriftReport summarizes the clock-drift stage of one transport run.
type DriftReport struct {
	// Corrected reports whether the adaptive resampler was in the path.
	Corrected bool
	// FinalPPM is the filtered skew estimate at end of run.
	FinalPPM float64
	// MaxAbsPPM is the largest estimate magnitude seen at any window.
	MaxAbsPPM float64
	// Locked reports whether the estimator ever accumulated lock.
	Locked bool
	// RateJumps lists windows (AtSample values) where the estimator
	// flagged a suspected oscillator step; the engine masks canceller
	// adaptation there.
	RateJumps []int64
	// Windows traces every playout window in order.
	Windows []DriftWindow
	// FinalOccErr is the occupancy error at the last window.
	FinalOccErr float64
}

// Replay maps the report onto a cancellation loop's clock, on which the
// received stream's sample s is consumed at t = s + offset. With holds,
// adaptation holds for hold samples at every suspected oscillator step
// (the alignment is about to slew); with windows, every estimator window
// is replayed for the supervisor's health view.
func (r *DriftReport) Replay(offset int64, hold int, holds, windows bool) *graph.DriftReplay {
	replay := &graph.DriftReplay{HoldSamples: hold}
	if holds {
		replay.Holds = make(map[int64]bool, len(r.RateJumps))
		for _, j := range r.RateJumps {
			replay.Holds[j+offset] = true
		}
	}
	if windows {
		replay.Windows = make([]graph.DriftObservation, len(r.Windows))
		for i, w := range r.Windows {
			replay.Windows[i] = graph.DriftObservation{At: w.AtSample + offset, PPM: w.PPM, Locked: w.Locked}
		}
	}
	return replay
}

// packetizeSkewed is PacketizeReference's generalization to a relay on a
// skewed oscillator: relay samples are captured at ear-clock positions
// dictated by stream.ClockSkew (the reference warped onto the relay's
// clock), frames carry relay-sample timestamps, and every transport event
// — send, delivery, playout — is interleaved on the ear clock. A
// DriftEstimator watches delivered data frames; with lt.DriftCorrect a
// VariRateResampler between the jitter buffer and the playout stream
// consumes input at the estimated relay rate, holding the reference
// sample-aligned to the ear.
//
// At zero configured skew every capture position is an exact integer, the
// warp is the identity, frame availability times land on the unskewed
// lattice, and the event interleave — including send-vs-playout tie
// ordering and the end-of-stream drain — reduces to PacketizeReference's
// loop bit for bit; with DriftCorrect the estimator reads exactly slope
// 1.0, the rate stays exactly 1, and the resampler is an exact
// passthrough (pinned by TestDriftCorrectCleanClockIdentity).
func packetizeSkewed(ref []float64, lt LossTransport) ([]float64, []bool, LossTransportStats, error) {
	var stats LossTransportStats
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
	jb.Anchor(0)
	dec := stream.NewFECDecoder(4 * jitterDepth)
	est, err := stream.NewDriftEstimator(stream.DriftConfig{})
	if err != nil {
		return nil, nil, stats, err
	}
	var rs *dsp.VariRateResampler
	if lt.DriftCorrect {
		rs = dsp.NewVariRateResampler()
	}

	frameN := lt.FrameSamples
	prime := lt.PrimeFrames
	n := len(ref)
	nPops := (n + frameN - 1) / frameN
	recv := make([]float64, nPops*frameN)
	mask := make([]bool, nPops*frameN)
	rep := &DriftReport{Corrected: lt.DriftCorrect}
	stats.Drift = rep

	// now is the ear-clock event time.
	now := 0.0
	occSm := 0.0
	lastOcc := 0.0

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
			// Only directly delivered data frames feed the slope fit:
			// FEC reconstructions land a group late, so their delivery
			// time says nothing about the relay clock.
			if out == f && !f.Parity {
				est.Observe(f.Timestamp, now)
			}
		}
	}

	popped := 0
	pop := func(deliverDue func(t float64, windowStart bool)) {
		j := popped
		start := j * frameN
		tPop := float64((j + prime + 1) * frameN)
		estPPM := est.PPM()
		fresh := est.Estimable(tPop)
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
				corr += ph * est.Config().PhaseGainPPM
			}
			rs.SetRate(1 + corr*1e-6)
			rate = rs.Rate()
			for i := 0; i < frameN; i++ {
				if i > 0 {
					deliverDue(tPop+float64(i), false)
				}
				for !rs.Ready() {
					var v [1]float64
					var m [1]bool
					jb.PopMask(v[:], m[:])
					rs.Push(v[0], m[0])
				}
				recv[start+i], mask[start+i], _ = rs.Pop()
			}
		} else {
			for i := 0; i < frameN; i++ {
				if i > 0 {
					deliverDue(tPop+float64(i), false)
				}
				jb.PopMask(recv[start+i:start+i+1], mask[start+i:start+i+1])
			}
		}
		if est.StepSuspected() {
			rep.RateJumps = append(rep.RateJumps, int64(start))
		}
		if a := estPPM; a >= 0 {
			if a > rep.MaxAbsPPM {
				rep.MaxAbsPPM = a
			}
		} else if -a > rep.MaxAbsPPM {
			rep.MaxAbsPPM = -a
		}
		rep.Windows = append(rep.Windows, DriftWindow{
			AtSample: int64(start),
			PPM:      estPPM,
			RatePPM:  (rate - 1) * 1e6,
			OccErr:   lastOcc,
			Locked:   fresh,
		})
		if lt.Trace != nil && j%traceEveryFrames == 0 {
			tracePlayout(lt.Trace, int64(start), jb, &stats, frameN)
			traceDrift(lt.Trace, int64(start), estPPM, rate, lastOcc, fresh)
		}
		popped++
	}

	// Phase 1 — capture and send. The relay's side of the run is
	// independent of playout, so every link event is computed up front and
	// recorded with its ear-clock delivery time; playout then consumes the
	// schedule sample by sample. A window pops at tPop but its i-th sample
	// renders at ear time tPop+i, so a frame landing mid-window is in time
	// for the samples after its arrival — without this, the sub-frame
	// phase between the arrival lattice (period F/(1+skew)) and the pop
	// lattice (period F) slips through a whole frame every F/|skew·1e-6|
	// samples and the buffer margin sawtooths through zero, concealing a
	// burst of samples once per cycle. Per-sample delivery keeps the
	// margin at about prime·F at every phase. At zero skew every delivery
	// lands exactly on a window start, so the schedule replays the
	// unskewed transport's event interleave bit for bit.
	type delivery struct {
		at     float64
		frames []*stream.Frame
		// drain marks the end-of-stream remnant: windows due by then play
		// out first (the unskewed loop's drain ordering), so it is held
		// until the next window start after at.
		drain bool
	}
	var sched []delivery
	seq := uint32(0)
	rIdx := uint64(0) // relay sample counter — the timestamp clock
	for cs.Pos() < float64(n) {
		samples := make([]float64, frameN)
		for i := range samples {
			p := cs.Advance()
			if p < float64(n) {
				samples[i] = dsp.CubicInterpAt(ref, p)
			}
			// p ≥ n: the relay has run past the captured signal and
			// forwards silence, matching the unskewed zero padding.
		}
		f := &stream.Frame{Seq: seq, Timestamp: rIdx, Samples: samples}
		rIdx += uint64(frameN)
		avail := cs.Pos()
		seq++
		// Transfer's result is scratch reused next slot; the schedule holds
		// deliveries across the whole phase, so copy.
		if out := link.Transfer(f); len(out) > 0 {
			sched = append(sched, delivery{at: avail, frames: append([]*stream.Frame(nil), out...)})
		}
		if enc != nil {
			if parity := enc.Add(f); parity != nil {
				parity.Seq = seq
				seq++
				if out := link.Transfer(parity); len(out) > 0 {
					sched = append(sched, delivery{at: avail, frames: append([]*stream.Frame(nil), out...)})
				}
			}
		}
	}
	if out := link.Drain(); len(out) > 0 {
		sched = append(sched, delivery{at: cs.Pos(), frames: append([]*stream.Frame(nil), out...), drain: true})
	}

	// Phase 2 — playout. Deliveries due at or before an event time land
	// first (a send tying a window start precedes the pop, as in the
	// unskewed loop); the drain remnant waits for a strictly later window.
	si := 0
	deliverDue := func(t float64, windowStart bool) {
		for si < len(sched) {
			d := sched[si]
			if d.at > t || (d.drain && !(windowStart && d.at < t)) {
				return
			}
			now = d.at
			deliver(d.frames)
			si++
		}
	}
	for popped < nPops {
		tPop := float64((popped + prime + 1) * frameN)
		deliverDue(tPop, true)
		pop(deliverDue)
	}
	// Anything still scheduled (a remnant landing after the last window)
	// feeds the estimator so the final report matches the full stream.
	for si < len(sched) {
		now = sched[si].at
		deliver(sched[si].frames)
		si++
	}

	rep.FinalPPM = est.PPM()
	rep.Locked = est.Locked()
	rep.FinalOccErr = lastOcc
	stats.Jitter = jb.Stats()
	stats.Link = link.Stats()
	return recv[:n], mask[:n], stats, nil
}

// traceDrift records the drift stage's state at one playout window.
func traceDrift(tr *telemetry.Trace, t int64, estPPM, rate, occ float64, locked bool) {
	l := 0.0
	if locked {
		l = 1
	}
	tr.Record(t, telemetry.StageDrift, "estimator", map[string]float64{
		"est_ppm":  estPPM,
		"rate_ppm": (rate - 1) * 1e6,
		"occ_err":  occ,
		"locked":   l,
	})
}
