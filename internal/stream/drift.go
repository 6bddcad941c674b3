package stream

import (
	"fmt"
	"sort"
)

// The drift estimator's fixed tuning.
const (
	// driftMinFrames is how many observations are needed before the
	// estimate counts as locked.
	driftMinFrames = 8
	// driftMaxPPM clamps the estimate magnitude.
	driftMaxPPM = 500
	// driftJumpPPM is the raw-vs-filtered divergence that flags a
	// suspected oscillator step; consumers use it to mask adaptation
	// through the resulting rate jump.
	driftJumpPPM = 50
	// driftStaleSpacings is the estimable horizon: with no observation
	// for this many median inter-frame spacings the estimate is held but
	// no longer trusted for phase steering.
	driftStaleSpacings = 8
)

// DriftPhaseGainPPM is the proportional phase term of the drift-correction
// loop built on a DriftEstimator: ppm of rate correction per sample of
// buffer-occupancy error.
const DriftPhaseGainPPM = 2

// DriftConfig tunes a DriftEstimator. The zero value selects defaults.
type DriftConfig struct {
	// WindowFrames is how many (timestamp, arrival) observations the
	// slope fit spans (default 64).
	WindowFrames int
	// SlopeGain is the loop-filter gain applied to each raw-slope
	// innovation (default 0.05): the frequency half of the PI loop.
	SlopeGain float64
}

func (c DriftConfig) withDefaults() (DriftConfig, error) {
	if c.WindowFrames == 0 {
		c.WindowFrames = 64
	}
	if c.WindowFrames < 4 {
		return c, fmt.Errorf("stream: drift window %d below minimum 4", c.WindowFrames)
	}
	if c.SlopeGain == 0 {
		c.SlopeGain = 0.05
	}
	if c.SlopeGain < 0 || c.SlopeGain > 1 {
		return c, fmt.Errorf("stream: drift slope gain %g outside (0, 1]", c.SlopeGain)
	}
	return c, nil
}

// DriftEstimator measures the relay-vs-ear clock skew from the stream the
// ear actually sees: each delivered frame contributes one (timestamp,
// arrival) pair, where the timestamp counts relay samples and the arrival
// is the ear-clock time the frame landed. The slope of timestamp vs
// arrival is 1 + skew; the estimator fits it robustly (median of paired
// differences across the half-window — one loitering jitter-delayed frame
// cannot bias it) and low-passes the innovation through an integrator, the
// frequency half of a PI/PLL loop. Consumers add the phase half from
// buffer-occupancy error (see DriftPhaseGainPPM).
//
// Loss and outage tolerance come for free: a missing frame is just a
// missing observation, reordered or duplicate timestamps are rejected by
// monotonicity, and Estimable reports when the estimate is too stale to
// steer with (the consumer then holds the last locked frequency).
//
// Exactness: with both clocks nominal every slope is exactly 1.0 and the
// integrator input is exactly 0, so PPM stays 0.0 and a rate derived from
// it is exactly 1 — the property the 0 ppm bit-identity pin relies on.
type DriftEstimator struct {
	cfg DriftConfig
	ts  []float64 // ring: timestamps, relay samples
	arr []float64 // ring: arrivals, ear samples
	n   int       // valid entries
	w   int       // write index
	obs int       // accepted observations, total

	lastTs  uint64
	haveTs  bool
	lastArr float64
	est     float64 // filtered skew, ppm
	raw     float64 // last raw slope fit, ppm
	haveRaw bool
	stepArm bool // hysteresis: a suspected step is active
	scratch []float64
}

// NewDriftEstimator creates an estimator with defaults filled.
func NewDriftEstimator(cfg DriftConfig) (*DriftEstimator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &DriftEstimator{
		cfg: cfg,
		ts:  make([]float64, cfg.WindowFrames),
		arr: make([]float64, cfg.WindowFrames),
	}, nil
}

// Observe feeds one delivered frame: its relay-clock timestamp and its
// ear-clock arrival time. Non-increasing timestamps (duplicates, FEC
// echoes, reordering artifacts) are ignored.
func (d *DriftEstimator) Observe(ts uint64, arrival float64) {
	if d.haveTs && ts <= d.lastTs {
		return
	}
	if d.obs > 0 && arrival < d.lastArr {
		arrival = d.lastArr
	}
	d.lastTs, d.haveTs = ts, true
	d.lastArr = arrival
	d.ts[d.w] = float64(ts)
	d.arr[d.w] = arrival
	d.w = (d.w + 1) % len(d.ts)
	if d.n < len(d.ts) {
		d.n++
	}
	d.obs++
	d.refit()
}

// refit recomputes the raw slope (median of half-window paired
// differences) and advances the loop filter.
func (d *DriftEstimator) refit() {
	h := d.n / 2
	if h < 2 {
		return
	}
	// Ring order: the oldest valid entry sits at w when full, at 0 before.
	start := 0
	if d.n == len(d.ts) {
		start = d.w
	}
	at := func(k int) (float64, float64) {
		i := (start + k) % len(d.ts)
		return d.ts[i], d.arr[i]
	}
	d.scratch = d.scratch[:0]
	for j := 0; j+h < d.n; j++ {
		t0, a0 := at(j)
		t1, a1 := at(j + h)
		if a1 <= a0 {
			continue
		}
		d.scratch = append(d.scratch, (t1-t0)/(a1-a0))
	}
	if len(d.scratch) == 0 {
		return
	}
	sort.Float64s(d.scratch)
	m := len(d.scratch) / 2
	slope := d.scratch[m]
	if len(d.scratch)%2 == 0 {
		slope = (d.scratch[m-1] + d.scratch[m]) / 2
	}
	d.raw = (slope - 1) * 1e6
	d.haveRaw = true
	d.est += d.cfg.SlopeGain * (d.raw - d.est)
	if d.est > driftMaxPPM {
		d.est = driftMaxPPM
	} else if d.est < -driftMaxPPM {
		d.est = -driftMaxPPM
	}
}

// PPM returns the filtered skew estimate in parts per million.
func (d *DriftEstimator) PPM() float64 { return d.est }

// Observations returns how many observations have been accepted in total.
func (d *DriftEstimator) Observations() int { return d.obs }

// LastTimestamp returns the relay-clock timestamp of the newest accepted
// observation (0 before any; check Observations). Together with
// LastArrival and PPM it lets a consumer extrapolate the relay's
// timestamp line to any later ear-clock time — the loss-robust way to
// measure buffer-occupancy error, since dropped frames never perturb the
// line.
func (d *DriftEstimator) LastTimestamp() uint64 { return d.lastTs }

// RawPPM returns the latest unfiltered slope fit in ppm.
func (d *DriftEstimator) RawPPM() float64 { return d.raw }

// Locked reports whether enough observations have accumulated for the
// estimate to be meaningful.
func (d *DriftEstimator) Locked() bool { return d.obs >= driftMinFrames }

// LastArrival returns the ear-clock time of the newest accepted
// observation (0 before any).
func (d *DriftEstimator) LastArrival() float64 { return d.lastArr }

// Estimable reports whether the estimate is current enough at ear-clock
// time now to steer a resampler's phase: locked, and the newest
// observation is within driftStaleSpacings median inter-frame spacings.
// During an outage it goes false and the consumer holds frequency only.
func (d *DriftEstimator) Estimable(now float64) bool {
	if !d.Locked() {
		return false
	}
	sp := d.medianSpacing()
	if sp <= 0 {
		return true
	}
	return now-d.lastArr <= driftStaleSpacings*sp
}

// medianSpacing returns the mean arrival spacing across the window (a
// cheap robust-enough stand-in: the window endpoints straddle any jitter).
func (d *DriftEstimator) medianSpacing() float64 {
	if d.n < 2 {
		return 0
	}
	start := 0
	if d.n == len(d.ts) {
		start = d.w
	}
	first := d.arr[start%len(d.arr)]
	last := d.arr[(start+d.n-1)%len(d.arr)]
	return (last - first) / float64(d.n-1)
}

// StepSuspected reports, with hysteresis, that the raw slope has diverged
// from the filtered estimate by more than driftJumpPPM — the signature of an
// oscillator step mid-run. It re-arms once the loop has re-converged to
// within half the threshold. Consumers mask canceller adaptation when
// this first fires, since the alignment is about to slew.
func (d *DriftEstimator) StepSuspected() bool {
	if !d.haveRaw || !d.Locked() {
		return false
	}
	div := d.raw - d.est
	if div < 0 {
		div = -div
	}
	if d.stepArm {
		if div < driftJumpPPM/2 {
			d.stepArm = false
		}
		return false
	}
	if div > driftJumpPPM {
		d.stepArm = true
		return true
	}
	return false
}
