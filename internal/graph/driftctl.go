package graph

import (
	"mute/internal/dsp"
	"mute/internal/stream"
)

// DriftWindow is the drift stage over one frame window of its output: the
// pipeline index of its first sample; at its start the skew estimate,
// whether it was fresh enough to steer with (Estimable), the applied rate
// deviation (rate−1)·1e6 and the occupancy error (both 0 without a
// resampler); and whether a step was suspected by its end.
type DriftWindow struct {
	At              int64
	PPM             float64
	RatePPM, OccErr float64
	Locked, Step    bool
}

// DriftSource is the clock-drift stage and the pipeline's drift control:
// it pulls a jitter-buffered source through a resampler steered to the
// relay's clock (a nil RS passes the stream through, watching the
// estimator only). The law runs once per Frame window of its output, at
// ear time (the estimator's arrival axis) first output index + target;
// the target is the PrimeSamples Build booked plus one frame. The rate is
// the skew estimate plus, while it is fresh, a phase term: the occupancy
// error (the relay's timestamp line extrapolated to the window, less the
// read position and the target) through a 1/8 EWMA, clamped to ±40
// samples, times stream.DriftPhaseGainPPM. At zero skew the error is
// exactly 0 and the resampler a bit-exact passthrough. Tick hands a
// window to the supervisor when its first sample reaches the canceller —
// with a resampler, the skew left after correction (estimate less rate) —
// and holds adaptation for Hold samples if the window flagged a step.
// Bind it as Config.Drift (and as Reference when nothing wraps it).
type DriftSource struct {
	Inner *ReceiverSource
	Est   *stream.DriftEstimator
	// RS is the resampler (nil = watch the estimator only).
	RS *dsp.VariRateResampler
	// Frame is the relay's frame size in samples: the steering window, and
	// the in-flight frame of the target occupancy.
	Frame int
	// Hold is the adaptation hold in samples at a suspected oscillator
	// step (0 = no holds).
	Hold int

	prime int    // PrimeSamples booked at Build
	out   int64  // output samples produced
	in    uint64 // input samples pushed into RS
	occSm float64
	cur   DriftWindow   // the window being produced
	wins  []DriftWindow // opened windows not yet ticked, oldest first
	head  int
	x     []float64 // input scratch
	m     []bool
}

// Pull produces one consumer-clock block, re-steering at every window
// start. With the resampler, each window segment pulls the input its
// outputs consume in one inner pull.
func (s *DriftSource) Pull(dst []float64, mask []bool, start int64) int {
	f := int64(s.Frame)
	for i := 0; i < len(dst); {
		if s.out%f == 0 {
			s.open(start + int64(i))
		}
		k := min(len(dst), i+int(f-s.out%f))
		if s.RS == nil {
			s.Inner.Pull(dst[i:k], mask[i:k], start+int64(i))
		} else {
			need := s.RS.Need(k - i)
			if need > len(s.x) {
				s.x, s.m = make([]float64, need), make([]bool, need)
			}
			if need > 0 {
				s.Inner.Pull(s.x[:need], s.m[:need], start+int64(i))
				for q := range need {
					s.RS.Push(s.x[q], s.m[q])
				}
				s.in += uint64(need)
			}
			for q := i; q < k; q++ {
				dst[q], mask[q], _ = s.RS.Pop()
			}
		}
		s.out += int64(k - i)
		if s.out%f == 0 {
			s.cur.Step = s.Est.StepSuspected()
			if n := len(s.wins); n > s.head && s.wins[n-1].At == s.cur.At {
				s.wins[n-1].Step = s.cur.Step
			}
		}
		i = k
	}
	return len(dst)
}

// open steers the rate for the window starting at pipeline index at and
// queues the window for Tick.
func (s *DriftSource) open(at int64) {
	target := s.prime + s.Frame
	now := float64(s.out + int64(target))
	w := DriftWindow{At: at, PPM: s.Est.PPM(), Locked: s.Est.Estimable(now)}
	if s.RS != nil {
		if s.Est.Observations() > 0 {
			horizon := float64(s.Est.LastTimestamp()) + float64(s.Frame) +
				(now-s.Est.LastArrival())*(1+s.Est.PPM()*1e-6)
			// The read position on the relay's timestamp axis: the jitter
			// buffer's playout clock (a live one starts at the first frame,
			// not the first pull) less the input not yet consumed.
			readPos := float64(s.Inner.PlayoutClock()) - (float64(s.in) - s.RS.Position())
			w.OccErr = horizon - readPos - float64(target)
		}
		s.occSm += 0.125 * (w.OccErr - s.occSm)
		corr := w.PPM
		if w.Locked {
			corr += min(max(s.occSm, -40), 40) * stream.DriftPhaseGainPPM
		}
		s.RS.SetRate(1 + corr*1e-6)
		w.RatePPM = (s.RS.Rate() - 1) * 1e6
	}
	s.cur = w
	if s.head >= 64 {
		s.wins = s.wins[:copy(s.wins, s.wins[s.head:])]
		s.head = 0
	}
	s.wins = append(s.wins, w)
}

// Window returns the most recently opened window (its Step is set once
// the window's last sample has been produced).
func (s *DriftSource) Window() DriftWindow { return s.cur }

// Tick applies each window's supervisor observation and step hold when
// the window's first sample reaches the canceller.
func (s *DriftSource) Tick(t int64, c Controls) {
	for s.head < len(s.wins) && s.wins[s.head].At <= t {
		w := s.wins[s.head]
		s.head++
		if w.At < t {
			continue // pulled before the pipeline's clock started
		}
		c.ObserveDrift(w.PPM-w.RatePPM, w.Locked)
		if w.Step && s.Hold > 0 {
			c.Hold(s.Hold, 0)
		}
	}
}

// DriftState reads the stage for the per-block live hooks.
func (s *DriftSource) DriftState() (estPPM, rawPPM, ratePPM float64, locked bool) {
	return s.Est.PPM(), s.Est.RawPPM(), s.cur.RatePPM, s.Est.Locked()
}
