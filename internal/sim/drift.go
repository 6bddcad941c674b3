package sim

import (
	"math"

	"mute/internal/graph"
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

// observe appends one playout window; step reports the estimator
// suspected an oscillator step by the window's end.
func (r *DriftReport) observe(w DriftWindow, step bool) {
	if step {
		r.RateJumps = append(r.RateJumps, w.AtSample)
	}
	if a := math.Abs(w.PPM); a > r.MaxAbsPPM {
		r.MaxAbsPPM = a
	}
	r.Windows = append(r.Windows, w)
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
