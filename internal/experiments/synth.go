package experiments

import (
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/sim"
	"mute/internal/supervisor"
)

// The synthetic deployment the loss, outage and drift cells share is the
// demo ear of cmd/muteear's self-test: the ear hears the source through
// core.EarChannel, the anti-noise reaches the error microphone through
// core.EarSecondaryPath (used as its own estimate ĥ_se), and the
// forwarded reference runs N + synthSlack samples ahead of the wavefront —
// what remains of a large geometric lookahead after the playout buffer
// consumed its share.

// synthSlack is the lookahead margin beyond the non-causal taps.
const synthSlack = 4

// synthDeployment is one canceller configuration on the synthetic
// deployment. The cancellation loop itself is graph.Build's; a cell only
// chooses the tap counts, loss awareness, the optional ladder and the
// optional drift control, and binds its reference source.
type synthDeployment struct {
	nonCausal, causal int
	lossAware         bool
	// prime is the transport's playout prime in samples, booked in the
	// budget on top of the shift (a bound drift source steers to it).
	prime int
	// sup, when non-nil, runs the canceller under the degradation ladder
	// with this tuning.
	sup *supervisor.Config
	// drift is the optional drift-control stage (on the cell's loop clock,
	// where reference sample t+shift meets wavefront sample t).
	drift graph.DriftControl
}

// shift is how far the reference leads the wavefront, in samples: the
// index into the received stream that the canceller consumes at t = 0.
func (sd synthDeployment) shift() int { return sd.nonCausal + synthSlack }

// packetize sends clean through a transport placed to lead the wavefront
// by the shift, and books the transport's prime.
func (sd *synthDeployment) packetize(clean []float64, lt sim.LossTransport) (*sim.Transport, error) {
	tp, err := sim.PacketizeReference(clean, lt)
	if err != nil {
		return nil, err
	}
	tp.Delay = -sd.shift()
	sd.prime = lt.PrimeSamples()
	return tp, nil
}

// run renders the ear signal d from the clean source, cancels it with ref
// (which must lead by shift samples, as packetize places it), and
// returns the pipeline, d and the error-microphone residual, both
// len(clean) − shift long.
func (sd synthDeployment) run(c Config, clean []float64, ref graph.SampleSource) (pl *graph.Pipeline, d, residual []float64, err error) {
	steps := len(clean) - sd.shift()
	d = dsp.NewStreamConvolver(core.EarChannel()).ProcessBlock(clean[:steps])
	residual = make([]float64, steps)
	sec := core.EarSecondaryPath()
	cfg := graph.Config{
		SampleRate:       c.SampleRate,
		Lookahead:        sd.shift() + sd.prime,
		PrimeSamples:     sd.prime,
		MaxNonCausalTaps: sd.nonCausal,
		Canceller: graph.CancellerParams{
			CausalTaps:    sd.causal,
			Mu:            0.1,
			SecondaryPath: sec,
			LossAware:     sd.lossAware,
		},
		Reference:   ref,
		Ambient:     &graph.SliceAmbient{Local: d, Cup: d},
		Drift:       sd.drift,
		SecondaryIR: sec,
		Residual:    residual,
	}
	if sd.sup != nil {
		cfg.Supervise = true
		cfg.SupervisorConfig = sd.sup
	}
	if pl, err = graph.Build(cfg); err != nil {
		return nil, nil, nil, err
	}
	if err = pl.Run(steps, 0); err != nil {
		return nil, nil, nil, err
	}
	return pl, d, residual, nil
}

// secondHalfDB scores a run: residual power at the ear versus the
// uncancelled primary d, in dB over the converged second half (negative
// is better; 0 dB is the passive floor). A non-nil keep restricts the
// score to the samples it marks.
func secondHalfDB(d, residual []float64, keep []bool) float64 {
	var resPow, priPow float64
	for t := len(d) / 2; t < len(d); t++ {
		if keep != nil && !keep[t] {
			continue
		}
		resPow += residual[t] * residual[t]
		priPow += d[t] * d[t]
	}
	return dsp.DB((resPow + dsp.EpsilonPower) / (priPow + dsp.EpsilonPower))
}

// failoverSource feeds the canceller from whichever of two relays a
// supervisor.Failover selects, stepping the failover once per sample.
// The failover reads only link health, so the source needs no feedback
// from the loop.
type failoverSource struct {
	fo  *supervisor.Failover
	src [2]graph.SampleSource // per relay, leading by the deployment shift
	err error                 // the failover's error, if any; the stream ends there

	x    [2][]float64 // per-relay block scratch
	m    [2][]bool
	v    [2]float64
	live [2]bool
}

// Pull implements graph.SampleSource.
func (s *failoverSource) Pull(dst []float64, mask []bool, start int64) int {
	n := len(dst)
	for r, src := range s.src {
		if len(s.x[r]) < len(dst) {
			s.x[r], s.m[r] = make([]float64, len(dst)), make([]bool, len(dst))
		}
		n = min(n, src.Pull(s.x[r][:len(dst)], s.m[r][:len(dst)], start))
	}
	for i := range n {
		for r := range s.v {
			s.v[r], s.live[r] = s.x[r][i], s.m[r][i]
		}
		idx, err := s.fo.Step(s.v[:], s.live[:])
		if err != nil {
			s.err = err
			return i
		}
		dst[i], mask[i] = s.v[idx], s.live[idx]
	}
	return n
}
