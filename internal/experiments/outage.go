package experiments

import (
	"fmt"
	"math"

	"mute/internal/audio"
	"mute/internal/graph"
	"mute/internal/sim"
	"mute/internal/stream"
	"mute/internal/supervisor"
	"mute/internal/telemetry"
)

// outagePolicy is one resilience strategy under test.
type outagePolicy int

const (
	// outageNaive adapts straight through the concealment zeros.
	outageNaive outagePolicy = iota
	// outageFreeze holds the weights while concealed samples sit in the
	// gradient window (the loss experiment's best single-relay policy).
	outageFreeze
	// outageSupervised runs the degradation ladder: freeze plus demotion
	// to the local causal fallback when the link dies outright.
	outageSupervised
	// outageFailover runs two relays and switches streams when the
	// active relay's link health collapses.
	outageFailover
)

// OutageSweep measures cancellation against scheduled relay outages: the
// relay reboots mid-run and stays dark for the swept duration. Packet loss
// corrupts some reference samples; an outage removes all of them, which is
// the regime the degradation ladder and multi-relay failover exist for.
//
// Four policies share identical noise, link seeds, and outage schedules
// per cell: naive adaptation, concealment-freeze, the supervised ladder
// (freeze + warm-started local fallback + reacquisition probes), and
// two-relay failover (the second relay's link stays up through the
// outage). Every link also carries 2% background burst loss, because a
// relay that can reboot is not otherwise pristine. Scoring covers the
// converged second half of the run — which contains the outage and the
// recovery — so the number reflects the total damage each policy admits,
// not just steady state.
func OutageSweep(c Config) (*Figure, error) {
	c = c.Defaults()
	// Outage durations as fractions of the run so the sweep scales with
	// -duration; at the default 12 s these are 0.25 s … 3 s.
	fracs := []float64{1.0 / 48, 1.0 / 24, 1.0 / 12, 1.0 / 6, 1.0 / 4}
	policies := []struct {
		name string
		p    outagePolicy
	}{
		{"naive", outageNaive},
		{"freeze", outageFreeze},
		{"supervised", outageSupervised},
		{"failover_2relay", outageFailover},
	}

	ys := make([]float64, len(policies)*len(fracs))
	reports := make([]*supervisor.Report, len(fracs))
	switches := make([]int, len(fracs))
	kids := telemetryChildren(c.Telemetry, len(ys))
	err := parallelFor(c.Workers, len(ys), func(i int) error {
		pol := policies[i/len(fracs)]
		di := i % len(fracs)
		// Paired seeds: every policy in one duration cell shares the
		// same noise and link randomness, so curves differ only by
		// policy and cells are deterministic for any worker count.
		cell := outageCell{
			cfg:       c,
			policy:    pol.p,
			frac:      fracs[di],
			bgLoss:    0.02, // light burst loss on every link, outage or not
			linkSeed:  c.Seed*2027 + uint64(di)*31,
			noiseSeed: c.Seed + uint64(di)*7,
		}
		db, rep, moves, err := cell.run(childTelemetry(kids, i))
		if err != nil {
			return err
		}
		ys[i] = db
		if pol.p == outageSupervised {
			reports[di] = rep
		}
		if pol.p == outageFailover {
			switches[di] = moves
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mergeTelemetry(c.Telemetry, kids)

	fig := &Figure{
		ID:     "outage",
		Title:  "Cancellation vs relay outage duration (degradation ladder / failover)",
		XLabel: "outage duration (s)",
		YLabel: "residual vs no-ANC (dB)",
	}
	at := func(pi, di int) float64 { return ys[pi*len(fracs)+di] }
	for pi, pol := range policies {
		s := Series{Name: pol.name}
		for di, f := range fracs {
			s.X = append(s.X, f*c.Duration)
			s.Y = append(s.Y, at(pi, di))
		}
		fig.Series = append(fig.Series, s)
	}
	last := len(fracs) - 1
	fig.Notes = append(fig.Notes,
		note("%.2g s outage: supervised %.1f dB, failover %.1f dB vs naive %.1f dB",
			fracs[last]*c.Duration, at(2, last), at(3, last), at(0, last)),
		note("failover made %d mesh handoffs over the longest outage, the first association included", switches[last]))
	if rep := reports[last]; rep != nil {
		var total int64
		for _, s := range rep.TimeInState {
			total += s
		}
		breakdown := ""
		for st, samples := range rep.TimeInState {
			if samples == 0 {
				continue
			}
			if breakdown != "" {
				breakdown += ", "
			}
			breakdown += fmt.Sprintf("%s %.1f%%", supervisor.State(st), 100*float64(samples)/float64(total))
		}
		fig.Notes = append(fig.Notes,
			note("supervised time-in-state over the longest outage: %s (%d transitions, %d probes)",
				breakdown, len(rep.Transitions), rep.Probes))
	}
	return fig, nil
}

// outageCell is one (policy, outage duration) run.
type outageCell struct {
	cfg       Config
	policy    outagePolicy
	frac      float64
	bgLoss    float64 // background burst-loss rate on every relay link
	linkSeed  uint64
	noiseSeed uint64
}

// run scores the cell: residual power at the ear versus the uncancelled
// primary, in dB over the second half of the run (which contains the
// outage and the recovery; negative is better, 0 dB is the passive floor).
// It reuses the loss experiment's synthetic deployment — large geometric
// lookahead, 5 ms frames, one priming frame — with the loss replaced by a
// single scheduled outage, so all four policies are scored on the same
// acoustic leg.
func (oc outageCell) run(reg *telemetry.Registry) (float64, *supervisor.Report, int, error) {
	const (
		frameN = 40 // 5 ms frames at 8 kHz
		prime  = 1  // one priming frame of playout buffer
	)
	c := oc.cfg
	n := int(c.Duration * c.SampleRate)
	startSlot := uint64(0.55*c.Duration*c.SampleRate) / frameN
	durSlots := uint64(math.Max(1, math.Round(oc.frac*c.Duration*c.SampleRate/frameN)))
	// The paper's outage-sensitive deployments are low-frequency machine
	// noise (AC, compressor); band-limiting the source to 800 Hz keeps
	// the comparison inside the band every policy can actually reach —
	// the causal fallback's band-limiter rolls off around 1 kHz, so
	// white noise would hide its contribution behind energy nobody
	// cancels.
	src, err := audio.NewBandLimitedNoise(oc.noiseSeed, c.SampleRate, c.NoiseAmp, 800)
	if err != nil {
		return 0, nil, 0, err
	}
	clean := audio.Render(src, n)

	sd := synthDeployment{nonCausal: 32, causal: 128, lossAware: oc.policy != outageNaive}
	packetize := func(seed uint64, outage bool) (*sim.Transport, error) {
		link := stream.LossParams{Seed: seed, Loss: oc.bgLoss}
		if oc.bgLoss > 0 {
			link.MeanBurst = 4
		}
		if outage {
			link.Outages = []stream.Outage{{StartSlot: startSlot, DurationSlots: durSlots}}
		}
		return sd.packetize(clean, sim.LossTransport{Link: link, FrameSamples: frameN, PrimeFrames: prime})
	}
	var ref graph.SampleSource
	ref, err = packetize(oc.linkSeed, true)
	if err != nil {
		return 0, nil, 0, err
	}
	d := sd.ear(clean)
	var relays *relayMesh
	switch oc.policy {
	case outageSupervised:
		// Demotion thresholds sit above the priming transient's EWMA peak
		// so ladder moves are attributable to link health, not startup;
		// StarvationRun gets margin over a background loss burst (4
		// frames = 160 samples) so only a genuinely dead link — 50 ms of
		// consecutive concealment — forces the FALLBACK demotion.
		sd.sup = &supervisor.Config{DegradeThreshold: 0.2, FallbackThreshold: 0.5, StarvationRun: 400}
	case outageFailover:
		// The second relay hears the same source over an independent,
		// outage-free link: the redundancy the failover is meant to buy.
		second, err := packetize(oc.linkSeed+13, false)
		if err != nil {
			return 0, nil, 0, err
		}
		if relays, err = newRelayMesh([]graph.SampleSource{ref, second}, d, reg); err != nil {
			return 0, nil, 0, err
		}
		ref = relays
	}
	pl, res, err := sd.run(c, d, ref)
	if err != nil {
		return 0, nil, 0, err
	}
	var moves int
	if relays != nil {
		moves = relays.sel.Sup.Report().Handoffs
	}
	db := secondHalfDB(d, res, nil)
	rep := pl.Supervision()
	if reg != nil {
		// Observation only: the run above never branches on reg, so the
		// returned dB is byte-identical with telemetry on or off.
		reg.Counter("outage.runs").Inc()
		reg.Counter("outage.samples").Add(int64(len(res)))
		if rep != nil {
			rep.Publish(reg)
		}
		reg.Histogram("outage.cell_residual_db", telemetry.HistogramOpts{Lo: 1e-2, Ratio: 2, Buckets: 16}).Observe(-db)
	}
	return db, rep, moves, nil
}
