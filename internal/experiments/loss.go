package experiments

import (
	"mute/internal/audio"
	"mute/internal/graph"
	"mute/internal/sim"
	"mute/internal/stream"
	"mute/internal/telemetry"
)

// LossSweep measures cancellation against packet loss on the forwarded
// reference: the transport-robustness experiment for the digital-relay
// deployment. The reference reaches the ear device framed over a
// fault-injected link (i.i.d. and Gilbert–Elliott burst loss), with FEC
// on/off and the canceller's concealment-freeze mode on/off, at loss
// rates from 0 to 20%.
//
// The scenario is a large-lookahead deployment (the paper's Section 6
// "smart noise source" regime): geometric lookahead covers the playout
// buffering the transport needs (prime·frame + N + slack samples), so
// loss — not latency — is the variable under test. Naive adaptation
// treats the jitter buffer's zero-fill concealment as real audio and
// corrupts its filter at every burst; the freeze mode holds the weights
// until concealed samples leave the gradient window and ramps back after,
// degrading toward the passive floor instead.
func LossSweep(c Config) (*Figure, error) {
	c = c.Defaults()
	rates := []float64{0, 0.02, 0.05, 0.10, 0.20}
	type variant struct {
		name   string
		burst  float64 // Gilbert–Elliott mean burst length (0 = i.i.d.)
		fec    bool
		freeze bool
	}
	var variants []variant
	for _, b := range []struct {
		tag  string
		mean float64
	}{{"iid", 0}, {"burst", 4}} {
		for _, freeze := range []bool{false, true} {
			for _, fec := range []bool{false, true} {
				name := "naive"
				if freeze {
					name = "freeze"
				}
				if fec {
					name += "+fec"
				}
				variants = append(variants, variant{name + "_" + b.tag, b.mean, fec, freeze})
			}
		}
	}

	ys := make([]float64, len(variants)*len(rates))
	kids := telemetryChildren(c.Telemetry, len(ys))
	err := parallelFor(c.Workers, len(ys), func(i int) error {
		v := variants[i/len(rates)]
		ri := i % len(rates)
		// Paired seeds: all four policy variants of one (rate, burstiness)
		// cell share the same noise and link seeds, so curves differ only
		// by policy, and every cell is deterministic for any worker count.
		burstIdx := uint64(0)
		if v.burst > 0 {
			burstIdx = 1
		}
		link := stream.LossParams{
			Seed:      c.Seed*1009 + uint64(ri)*17 + burstIdx*5,
			Loss:      rates[ri],
			MeanBurst: v.burst,
		}
		db, err := lossRun(c, link, v.fec, v.freeze, c.Seed+uint64(ri)*23, childTelemetry(kids, i))
		if err != nil {
			return err
		}
		ys[i] = db
		return nil
	})
	if err != nil {
		return nil, err
	}
	mergeTelemetry(c.Telemetry, kids)

	fig := &Figure{
		ID:     "loss",
		Title:  "Cancellation vs reference packet loss (freeze/FEC policies)",
		XLabel: "loss rate (%)",
		YLabel: "residual vs no-ANC (dB)",
	}
	at := func(vi, ri int) float64 { return ys[vi*len(rates)+ri] }
	for vi, v := range variants {
		s := Series{Name: v.name}
		for ri, r := range rates {
			s.X = append(s.X, r*100)
			s.Y = append(s.Y, at(vi, ri))
		}
		fig.Series = append(fig.Series, s)
	}
	// Headline: burst loss at 10% — freeze+FEC vs naive, and freeze+FEC's
	// own degradation from the lossless baseline.
	var naiveB, freezeFECB int
	for vi, v := range variants {
		switch v.name {
		case "naive_burst":
			naiveB = vi
		case "freeze+fec_burst":
			freezeFECB = vi
		}
	}
	r10 := 3 // index of 0.10 in rates
	fig.Notes = append(fig.Notes,
		note("10%% burst loss: freeze+FEC %.1f dB vs naive %.1f dB",
			at(freezeFECB, r10), at(naiveB, r10)),
		note("freeze+FEC degradation 0%%→10%% loss: %.1f dB",
			at(freezeFECB, r10)-at(freezeFECB, 0)))
	return fig, nil
}

// lossRun scores one (link, policy) cell: residual power at the ear versus
// the uncancelled primary, in dB over the converged second half (negative
// is better; 0 dB is the passive floor).
//
// Scoring skips samples whose anti-noise window still contains concealed
// reference — there the residual equals the passive floor for every
// policy, because the audio simply never arrived, and averaging that
// common floor in would mask the effect under test. What remains is
// cancellation where cancellation is possible: it stays at the baseline
// when the filter survived the burst, and collapses when naive adaptation
// corrupted it.
func lossRun(c Config, link stream.LossParams, fec, freeze bool, noiseSeed uint64, reg *telemetry.Registry) (float64, error) {
	const (
		frameN = 40 // 5 ms frames at 8 kHz
		prime  = 4  // playout buffer covers the FEC group and jitter
	)
	n := int(c.Duration * c.SampleRate)
	clean := audio.Render(audio.NewWhiteNoise(noiseSeed, c.SampleRate, c.NoiseAmp), n)
	lt := sim.LossTransport{Link: link, FrameSamples: frameN, PrimeFrames: prime}
	if fec {
		lt.FECGroup = 4
	}
	sd := synthDeployment{nonCausal: 32, causal: 128, lossAware: freeze}
	tp, err := sd.packetize(clean, lt)
	if err != nil {
		return 0, err
	}
	tap := &graph.Tap{Inner: tp}
	d := sd.ear(clean)
	pl, res, err := sd.run(c, d, tap)
	if err != nil {
		return 0, err
	}
	stats := tp.Finish()
	// Score only where the anti-noise window is all-real again.
	keep := make([]bool, len(res))
	window := 0
	for t := range keep {
		if tap.Mask[t] {
			window--
		} else {
			window = sd.nonCausal + sd.causal + 1
		}
		keep[t] = window <= 0
	}
	db := secondHalfDB(d, res, keep)
	if reg != nil {
		// Observation only: the run above never branches on reg, so the
		// returned dB is byte-identical with telemetry on or off.
		reg.Counter("loss.runs").Inc()
		reg.Counter("loss.samples").Add(int64(len(res)))
		stats.Jitter.Publish(reg, "stream.")
		stats.Link.Publish(reg, "link.")
		reg.Counter("stream.fec_recovered").Add(int64(stats.FECRecovered))
		_, tapEnergy, muEff := pl.AdaptState()
		reg.Gauge("lanc.tap_energy").Set(tapEnergy)
		reg.Gauge("lanc.mu_eff").Set(muEff)
		reg.Histogram("loss.cell_residual_db", telemetry.HistogramOpts{Lo: 1e-2, Ratio: 2, Buckets: 16}).Observe(-db)
	}
	return db, nil
}
