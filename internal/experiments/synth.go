package experiments

import (
	"mute/internal/acoustics"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/graph"
	"mute/internal/mesh"
	"mute/internal/sim"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
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

// ear renders the uncancelled ear signal d from the clean source,
// len(clean) − shift long.
func (sd synthDeployment) ear(clean []float64) []float64 {
	return dsp.NewStreamConvolver(core.EarChannel()).ProcessBlock(clean[:len(clean)-sd.shift()])
}

// run cancels the ear signal d with ref (which must lead by shift
// samples, as packetize places it) and returns the pipeline and the
// error-microphone residual, as long as d.
func (sd synthDeployment) run(c Config, d []float64, ref graph.SampleSource) (pl *graph.Pipeline, residual []float64, err error) {
	steps := len(d)
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
		return nil, nil, err
	}
	if err = pl.Run(steps, 0); err != nil {
		return nil, nil, err
	}
	return pl, residual, nil
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

// relayMesh feeds the canceller from several packetized relays through
// one mesh.Supervisor at its default policy: each block pulls every
// relay's transport, then the mesh picks the reference sample by sample,
// correlating each relay against the uncancelled ear signal. A relay
// re-joins on its concealed→real edge, so one whose outage outlived the
// heartbeat timeout comes back (cold) when its link does.
type relayMesh struct {
	sel   mesh.Source
	src   []graph.SampleSource // per relay (slot), leading by the deployment shift
	start int64                // first sample of the pulled block
	was   []bool               // each relay's last flag, for the rejoin edge

	x [][]float64 // per-relay block scratch
	m [][]bool
}

// newRelayMesh joins one member per source; d is the uncancelled ear
// signal the mesh correlates against. reg, when non-nil, receives the
// mesh's counters.
func newRelayMesh(src []graph.SampleSource, d []float64, reg *telemetry.Registry) (*relayMesh, error) {
	sup, err := mesh.NewSupervisor(mesh.Config{Capacity: len(src)}, reg, nil)
	if err != nil {
		return nil, err
	}
	rm := &relayMesh{
		src: src,
		was: make([]bool, len(src)),
		x:   make([][]float64, len(src)),
		m:   make([][]bool, len(src)),
	}
	// Slots fill in join order, so relay r holds slot r.
	for r := range src {
		if _, err := sup.Join(int64(r), acoustics.Point{}); err != nil {
			return nil, err
		}
	}
	rm.sel = mesh.Source{
		Sup: sup,
		Tick: func(t int64) {
			for r := range rm.src {
				real := rm.m[r][t-rm.start]
				if real && !rm.was[r] {
					if _, err := sup.Join(int64(r), acoustics.Point{}); err != nil {
						panic(err) // a rejoin reuses its own slot
					}
				}
				rm.was[r] = real
			}
		},
		Local: func(t int64) float64 { return d[t] },
		Feed: func(slot int, t int64) (float64, bool) {
			return rm.x[slot][t-rm.start], rm.m[slot][t-rm.start]
		},
	}
	return rm, nil
}

// Pull implements graph.SampleSource.
func (rm *relayMesh) Pull(dst []float64, mask []bool, start int64) int {
	n := len(dst)
	for r, src := range rm.src {
		if len(rm.x[r]) < len(dst) {
			rm.x[r], rm.m[r] = make([]float64, len(dst)), make([]bool, len(dst))
		}
		n = min(n, src.Pull(rm.x[r][:len(dst)], rm.m[r][:len(dst)], start))
	}
	rm.start = start
	return rm.sel.Pull(dst[:n], mask[:n], start)
}
