package sim

import (
	"mute/internal/graph"
	"mute/internal/telemetry"
)

// DriftReport summarizes the clock-drift stage of one transport run.
type DriftReport struct {
	// FinalPPM is the filtered skew estimate at end of run.
	FinalPPM float64
	// MaxAbsPPM is the largest estimate magnitude seen at any window.
	MaxAbsPPM float64
	// RateJumps lists the windows (first stream sample) where the
	// estimator flagged a suspected oscillator step; a bound drift source
	// holds canceller adaptation there.
	RateJumps []int64
	// FinalOccErr is the occupancy error at the last window.
	FinalOccErr float64
}

// traceDrift records the drift stage's state at one playout window.
func traceDrift(tr *telemetry.Trace, t int64, w graph.DriftWindow) {
	l := 0.0
	if w.Locked {
		l = 1
	}
	tr.Record(t, telemetry.StageDrift, "estimator", map[string]float64{
		"est_ppm":  w.PPM,
		"rate_ppm": w.RatePPM,
		"occ_err":  w.OccErr,
		"locked":   l,
	})
}
