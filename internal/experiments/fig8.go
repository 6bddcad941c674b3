package experiments

import (
	"mute/internal/audio"
	"mute/internal/metrics"
	"mute/internal/sim"
)

// Fig8 reproduces the convergence-timeline illustration (Figure 8): the
// residual error over time for (a) continuous noise — converge once, stay
// converged; (b) intermittent speech with a single adaptive filter —
// re-convergence transients at every restart; (c) speech with
// lookahead-aware profiling — smoother cancellation because cached filters
// are swapped in at transitions.
func Fig8(c Config) (*Figure, error) {
	c = c.Defaults()
	fig := &Figure{
		ID:     "fig8",
		Title:  "Convergence timelines: continuous noise vs speech vs profiled speech",
		XLabel: "Time (s)",
		YLabel: "Residual power (dB)",
	}
	window := int(0.25 * c.SampleRate)
	// Per-window cancellation depth (residual vs open ear) rather than raw
	// residual power: an intermittent source swings the raw power by tens
	// of dB regardless of filter quality, hiding the convergence story.
	timeline := func(r *sim.Result) (Series, error) {
		on, err := metrics.NewResidualTimeline(r.On, c.SampleRate, window)
		if err != nil {
			return Series{}, err
		}
		open, err := metrics.NewResidualTimeline(r.Open, c.SampleRate, window)
		if err != nil {
			return Series{}, err
		}
		s := Series{}
		for i := range on.Times {
			if open.PowersDB[i] < -60 {
				continue // near-silent window: depth undefined
			}
			s.X = append(s.X, on.Times[i])
			s.Y = append(s.Y, on.PowersDB[i]-open.PowersDB[i])
		}
		return s, nil
	}

	// (b)/(c) Sentence speech, single filter vs profiling.
	speechRun := func(prof bool) (*sim.Result, error) {
		p := sim.DefaultParams(sim.DefaultScene(
			audio.NewSentenceSpeech(c.Seed+6, audio.MaleVoice, c.SampleRate, c.NoiseAmp*3)))
		p.Duration = c.Duration
		p.Mu = 0.02
		p.Profiling = prof
		return sim.Run(p, sim.MUTEHollow)
	}
	// The three timelines are independent runs; fan them out.
	runs := []func() (*sim.Result, error){
		// (a) Continuous wide-band noise.
		func() (*sim.Result, error) {
			pa := sim.DefaultParams(sim.DefaultScene(audio.NewWhiteNoise(c.Seed, c.SampleRate, c.NoiseAmp)))
			pa.Duration = c.Duration
			pa.Mu = 0.02
			return sim.Run(pa, sim.MUTEHollow)
		},
		func() (*sim.Result, error) { return speechRun(false) },
		func() (*sim.Result, error) { return speechRun(true) },
	}
	names := []string{"(a) Continuous noise", "(b) Speech, single filter", "(c) Speech, profiling"}
	series := make([]Series, len(runs))
	results := make([]*sim.Result, len(runs))
	err := parallelFor(c.Workers, len(runs), func(i int) error {
		r, err := runs[i]()
		if err != nil {
			return err
		}
		s, err := timeline(r)
		if err != nil {
			return err
		}
		s.Name = names[i]
		series[i] = s
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	sa, sb, sc := series[0], series[1], series[2]
	rc := results[2]

	fig.Series = []Series{sa, sb, sc}
	meanOf := func(s Series) float64 {
		var mean float64
		n := 0
		for i, y := range s.Y {
			if s.X[i] > 1 { // skip initial convergence
				mean += y
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return mean / float64(n)
	}
	fig.Notes = append(fig.Notes,
		note("steady-state cancellation depth: continuous %.1f dB, speech single-filter %.1f dB, speech profiled %.1f dB (%d predictive switches)",
			meanOf(sa), meanOf(sb), meanOf(sc), rc.Switches),
		note("the paper's Figure 8 contrast (large re-convergence transients without profiling) is sharpest with slow plain LMS; see fig17's controlled upper bound"),
	)
	return fig, nil
}
