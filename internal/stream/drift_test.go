package stream

import (
	"math"
	"testing"
)

// feedSkewed feeds d frames of a relay running at skew ppm: frame k
// carries timestamp k·frameN and arrives at ear time k·frameN/(1+ppm·1e-6).
func feedSkewed(d *DriftEstimator, frames, frameN int, ppm float64) {
	for k := 0; k < frames; k++ {
		ts := uint64(k * frameN)
		arr := float64(k*frameN) / (1 + ppm*1e-6)
		d.Observe(ts, arr)
	}
}

// TestDriftEstimatorLocksOnConstantSkew checks convergence at +100 ppm:
// after a window of frames the filtered estimate sits within a few ppm.
func TestDriftEstimatorLocksOnConstantSkew(t *testing.T) {
	d, err := NewDriftEstimator(DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	feedSkewed(d, 200, 40, 100)
	if !d.Locked() {
		t.Fatal("estimator not locked after 200 frames")
	}
	if got := d.PPM(); math.Abs(got-100) > 5 {
		t.Errorf("estimate %v ppm after 200 frames at +100 ppm, want within ±5", got)
	}
	if raw := d.RawPPM(); math.Abs(raw-100) > 1 {
		t.Errorf("raw slope %v ppm, want within ±1 of 100", raw)
	}
}

// TestDriftEstimatorExactZeroOnCleanClock pins the exactness the 0 ppm
// bit-identity relies on: identical clocks make every slope exactly 1, so
// the estimate stays exactly 0.0 — not merely small.
func TestDriftEstimatorExactZeroOnCleanClock(t *testing.T) {
	d, err := NewDriftEstimator(DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	feedSkewed(d, 500, 40, 0)
	if got := d.PPM(); got != 0 {
		t.Errorf("clean-clock estimate = %v, want exactly 0", got)
	}
	if raw := d.RawPPM(); raw != 0 {
		t.Errorf("clean-clock raw slope = %v ppm, want exactly 0", raw)
	}
	if !d.Locked() {
		t.Error("estimator should still lock on a clean clock")
	}
}

// TestDriftEstimatorRejectsNonMonotonic checks duplicate and reordered
// timestamps (FEC echoes, retransmits) do not count as observations or
// move the estimate.
func TestDriftEstimatorRejectsNonMonotonic(t *testing.T) {
	d, err := NewDriftEstimator(DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	feedSkewed(d, 50, 40, 100)
	obs, est := d.Observations(), d.PPM()
	d.Observe(uint64(49*40), 12345) // duplicate timestamp
	d.Observe(uint64(10*40), 99999) // reordered far-past timestamp
	if d.Observations() != obs {
		t.Errorf("non-monotonic timestamps accepted: %d observations, want %d", d.Observations(), obs)
	}
	if d.PPM() != est {
		t.Errorf("estimate moved from %v to %v on rejected observations", est, d.PPM())
	}
	if d.LastTimestamp() != uint64(49*40) {
		t.Errorf("LastTimestamp = %d, want %d", d.LastTimestamp(), 49*40)
	}
}

// TestDriftEstimatorEstimableGoesStale checks the staleness horizon: an
// estimator starved of frames holds its estimate but stops reporting it
// fresh enough for phase steering.
func TestDriftEstimatorEstimableGoesStale(t *testing.T) {
	d, err := NewDriftEstimator(DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	frameN := 40
	feedSkewed(d, 100, frameN, 100)
	last := d.LastArrival()
	if !d.Estimable(last + float64(frameN)) {
		t.Error("estimate stale one frame after the last arrival")
	}
	if d.Estimable(last + 10*float64(frameN)) {
		t.Error("estimate still fresh 10 spacings after the last arrival (horizon is 8)")
	}
	if !d.Locked() {
		t.Error("staleness must not clear lock")
	}
	if got := d.PPM(); math.Abs(got-100) > 5 {
		t.Errorf("stale estimate %v ppm drifted from 100", got)
	}
}

// TestDriftEstimatorStepSuspectedHysteresis checks an oscillator step
// fires StepSuspected exactly once and re-arms only after the loop
// re-converges.
func TestDriftEstimatorStepSuspectedHysteresis(t *testing.T) {
	d, err := NewDriftEstimator(DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	frameN := 40
	feedSkewed(d, 200, frameN, 50)
	if d.StepSuspected() {
		t.Fatal("step suspected on a settled constant skew")
	}
	// The relay's oscillator jumps +300 ppm: continue the arrival clock
	// from where it was, at the new rate.
	base := d.LastArrival()
	fires := 0
	for k := 1; k <= 300; k++ {
		ts := uint64((200 + k - 1) * frameN)
		d.Observe(ts, base+float64(k*frameN)/(1+350e-6))
		if d.StepSuspected() {
			fires++
		}
	}
	if fires != 1 {
		t.Errorf("StepSuspected fired %d times across one oscillator step, want exactly 1", fires)
	}
	if got := d.PPM(); math.Abs(got-350) > 10 {
		t.Errorf("estimate %v ppm after re-lock, want ~350", got)
	}
}

func TestDriftConfigValidation(t *testing.T) {
	bad := []DriftConfig{
		{WindowFrames: 2},
		{SlopeGain: -0.1},
		{SlopeGain: 1.5},
	}
	for _, cfg := range bad {
		if _, err := NewDriftEstimator(cfg); err == nil {
			t.Errorf("NewDriftEstimator accepted %+v", cfg)
		}
	}
	d, err := NewDriftEstimator(DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.cfg; got.WindowFrames != 64 || got.SlopeGain != 0.05 {
		t.Errorf("defaults not filled: %+v", got)
	}
}

// TestDriftEstimatorClampsToMaxPPM checks a wildly wrong clock saturates
// at the 500 ppm clamp instead of running away.
func TestDriftEstimatorClampsToMaxPPM(t *testing.T) {
	d, err := NewDriftEstimator(DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	feedSkewed(d, 300, 40, 900)
	if got := d.PPM(); got != driftMaxPPM {
		t.Errorf("estimate %v ppm on a +900 ppm clock, want clamped to exactly %d", got, driftMaxPPM)
	}
}
