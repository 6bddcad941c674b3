package experiments

import (
	"mute/internal/audio"
	"mute/internal/sim"
	"mute/internal/stream"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
)

// driftPolicy is one clock-skew strategy under test: a set of stages.
type driftPolicy int

const (
	// driftNaive plays the skewed stream as-is: the reference slides past
	// the canceller's tap span at the skew rate until alignment leaves the
	// filter entirely.
	driftNaive driftPolicy = 0
	// driftCorrected runs the estimator + adaptive resampler loop.
	driftCorrected driftPolicy = 1
	// driftSupervised lets the degradation ladder demote the canceller
	// when the measured skew (what correction leaves, if corrected)
	// exceeds what lookahead alignment can absorb.
	driftSupervised driftPolicy = 2
)

// DriftSweep measures cancellation against relay clock skew: the relay's
// oscillator runs ppm fast, so its forwarded reference slowly slides
// against the ear's sample clock. Loss corrupts individual samples and an
// outage removes stretches, but skew is the insidious failure — every
// sample arrives, each one slightly more misaligned than the last.
//
// Three policies share identical noise and skew schedules per cell: naive
// playout (alignment drifts at s·t until it exits the tap span and
// cancellation collapses), the corrected loop (drift estimator steering an
// adaptive fractional resampler, holding alignment indefinitely), and the
// supervised ladder (estimator only; excess measured skew demotes LANC to
// the local causal fallback, bounding the damage without correcting it).
// A final combined run adds burst loss on top of skew to show the
// estimator holds lock through concealment. Scoring covers the converged
// second half of the run, where the naive misalignment is largest.
func DriftSweep(c Config) (*Figure, error) {
	c = c.Defaults()
	ppms := []float64{0, 25, 50, 100, 200, 400}
	policies := []struct {
		name string
		p    driftPolicy
	}{
		{"naive", driftNaive},
		{"corrected", driftCorrected},
		{"supervised", driftSupervised},
	}

	ys := make([]float64, len(policies)*len(ppms))
	reports := make([]*sim.DriftReport, len(ppms))
	supReports := make([]*supervisor.Report, len(ppms))
	kids := telemetryChildren(c.Telemetry, len(ys))
	err := parallelFor(c.Workers, len(ys), func(i int) error {
		pol := policies[i/len(ppms)]
		di := i % len(ppms)
		// Paired seeds: every policy in one skew cell shares the same
		// noise, so curves differ only by policy and cells are
		// deterministic for any worker count.
		cell := driftCell{
			cfg:       c,
			policy:    pol.p,
			ppm:       ppms[di],
			linkSeed:  c.Seed*2027 + uint64(di)*31,
			noiseSeed: c.Seed + uint64(di)*7,
		}
		db, rep, sup, err := cell.run(childTelemetry(kids, i))
		if err != nil {
			return err
		}
		ys[i] = db
		if pol.p == driftCorrected {
			reports[di] = rep
		}
		if pol.p == driftSupervised {
			supReports[di] = sup
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mergeTelemetry(c.Telemetry, kids)

	// The combined fault: skew plus burst loss on one corrected run, to
	// show the estimator's robust fit holds lock through concealment.
	combined := driftCell{
		cfg:       c,
		policy:    driftCorrected,
		ppm:       100,
		bgLoss:    0.02,
		linkSeed:  c.Seed*2027 + 997,
		noiseSeed: c.Seed + 3*7,
	}
	combDB, combRep, _, err := combined.run(nil)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "drift",
		Title:  "Cancellation vs relay clock skew (drift estimator + adaptive resampler)",
		XLabel: "clock skew (ppm)",
		YLabel: "residual vs no-ANC (dB)",
	}
	at := func(pi, di int) float64 { return ys[pi*len(ppms)+di] }
	for pi, pol := range policies {
		s := Series{Name: pol.name}
		for di, ppm := range ppms {
			s.X = append(s.X, ppm)
			s.Y = append(s.Y, at(pi, di))
		}
		fig.Series = append(fig.Series, s)
	}
	hundred, last := 3, len(ppms)-1
	fig.Notes = append(fig.Notes,
		note("100 ppm: corrected %.1f dB, supervised %.1f dB vs naive %.1f dB",
			at(1, hundred), at(2, hundred), at(0, hundred)),
		note("%.0f ppm: corrected %.1f dB while naive collapses to %.1f dB",
			ppms[last], at(1, last), at(0, last)))
	if rep := reports[last]; rep != nil {
		fig.Notes = append(fig.Notes,
			note("estimator at %.0f ppm: final %.1f ppm, max |%.1f| ppm, %d suspected steps",
				ppms[last], rep.FinalPPM, rep.MaxAbsPPM, len(rep.RateJumps)))
	}
	if rep := supReports[last]; rep != nil {
		fig.Notes = append(fig.Notes,
			note("supervised ladder at %.0f ppm: %d transitions", ppms[last], len(rep.Transitions)))
	}
	if combRep != nil {
		fig.Notes = append(fig.Notes,
			note("combined 100 ppm skew + 2%% burst loss: corrected %.1f dB, estimator final %.1f ppm",
				combDB, combRep.FinalPPM))
	}
	return fig, nil
}

// driftCell is one (policy, skew) run.
type driftCell struct {
	cfg       Config
	policy    driftPolicy
	ppm       float64
	bgLoss    float64 // optional background burst loss on the link
	linkSeed  uint64
	noiseSeed uint64
}

// run scores the cell: residual power at the ear versus the uncancelled
// primary, in dB over the second half of the run (negative is better).
// The deployment mirrors the loss/outage cells — large geometric
// lookahead, 5 ms frames, one priming frame — but with a deliberately
// small non-causal tap span (12 taps beyond a 4-sample slack), so that
// uncorrected skew walks the alignment out of the filter within tens of
// seconds: at 100 ppm the needed lead shrinks by 0.8 samples per second
// and exits the span near the 35 s mark of a 60 s run.
func (dc driftCell) run(reg *telemetry.Registry) (float64, *sim.DriftReport, *supervisor.Report, error) {
	const (
		frameN = 40 // 5 ms frames at 8 kHz
		prime  = 1  // one priming frame of playout buffer
	)
	c := dc.cfg
	n := int(c.Duration * c.SampleRate)
	// Low-frequency machine noise, the paper's outage-sensitive regime.
	// The 500 Hz band matters doubly here: it keeps the comparison inside
	// the causal fallback's reach, and it keeps the cubic interpolation
	// error — paid once warping the reference onto the skewed relay clock
	// and once more resampling it back — far below the cancellation
	// floor (the error power scales as roughly the eighth power of
	// bandwidth over sample rate).
	src, err := audio.NewBandLimitedNoise(dc.noiseSeed, c.SampleRate, c.NoiseAmp, 500)
	if err != nil {
		return 0, nil, nil, err
	}
	clean := audio.Render(src, n)

	link := stream.LossParams{Seed: dc.linkSeed}
	if dc.bgLoss > 0 {
		link.Loss = dc.bgLoss
		link.MeanBurst = 4
	}
	sd := synthDeployment{nonCausal: 12, causal: 96, lossAware: true}
	tp, err := sd.packetize(clean, sim.LossTransport{
		Link:         link,
		FrameSamples: frameN,
		PrimeFrames:  prime,
		Skew:         &stream.SkewParams{Seed: dc.linkSeed + 41, PPM: dc.ppm},
		DriftCorrect: dc.policy&driftCorrected != 0,
	})
	if err != nil {
		return 0, nil, nil, err
	}
	if dc.policy&driftSupervised != 0 {
		// Health thresholds as in the outage cell (above the priming
		// transient); the drift rungs are tuned to this cell's tap span:
		// ~60 ppm is where a 12-tap lead no longer outlasts the run, and
		// twice that forces the causal fallback, which has no alignment
		// to lose.
		sd.sup = &supervisor.Config{
			DegradeThreshold: 0.2, FallbackThreshold: 0.5, StarvationRun: 400,
			DriftDegradePPM: 60, DriftFallbackPPM: 120,
		}
	}
	// The drift source is the cell's drift control: estimator windows for
	// the supervisor and, where the resampler steers, adaptation holds at
	// suspected oscillator steps. A transport with Skew set always has one.
	if dc.policy&driftCorrected != 0 {
		tp.Drift.Hold = 2 * frameN
	}
	sd.drift = tp.Drift
	d := sd.ear(clean)
	pl, res, err := sd.run(c, d, tp)
	if err != nil {
		return 0, nil, nil, err
	}
	drift := tp.Finish().Drift
	db := secondHalfDB(d, res, nil)

	supRep := pl.Supervision()
	if reg != nil {
		// Observation only: the run above never branches on reg, so the
		// returned dB is byte-identical with telemetry on or off.
		reg.Counter("drift.runs").Inc()
		reg.Counter("drift.samples").Add(int64(len(res)))
		if drift != nil {
			reg.Counter("drift.rate_jumps").Add(int64(len(drift.RateJumps)))
			reg.Gauge("drift.final_ppm").Set(drift.FinalPPM)
		}
		if supRep != nil {
			supRep.Publish(reg)
		}
		reg.Histogram("drift.cell_residual_db", telemetry.HistogramOpts{Lo: 1e-2, Ratio: 2, Buckets: 16}).Observe(-db)
	}
	return db, drift, supRep, nil
}
