package experiments

import (
	"math"

	"mute/internal/audio"
	"mute/internal/rf"
	"mute/internal/sim"
)

// AblationTaps sweeps LANC's non-causal tap count N with everything else
// fixed — the essence of the lookahead advantage, isolated from geometry.
func AblationTaps(c Config) (*Figure, error) {
	c = c.Defaults()
	gen := func() audio.Generator { return audio.NewWhiteNoise(c.Seed, c.SampleRate, c.NoiseAmp) }
	fig := &Figure{
		ID:     "ablation-taps",
		Title:  "Cancellation vs non-causal tap count N (fixed geometry)",
		XLabel: "Non-causal taps N",
		YLabel: "Full-band cancellation (dB)",
	}
	taps := []int{1, 2, 4, 8, 16, 32, 64}
	ys := make([]float64, len(taps))
	err := parallelFor(c.Workers, len(taps), func(i int) error {
		r, err := runScheme(c, sim.MUTEHollow, gen, func(p *sim.Params) {
			p.MaxNonCausalTaps = taps[i]
		})
		if err != nil {
			return err
		}
		db, err := r.CancellationDB(50, 4000)
		if err != nil {
			return err
		}
		ys[i] = db
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := Series{Name: "MUTE_Hollow"}
	for i, n := range taps {
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, ys[i])
	}
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes,
		note("cancellation at N=1: %.1f dB, at N=64: %.1f dB (diminishing returns once the inverse filter is covered)",
			s.Y[0], s.Y[len(s.Y)-1]))
	return fig, nil
}

// AblationFMSNR sweeps the FM channel SNR to show how link quality feeds
// through demodulated-audio quality into cancellation depth.
func AblationFMSNR(c Config) (*Figure, error) {
	c = c.Defaults()
	gen := func() audio.Generator { return audio.NewWhiteNoise(c.Seed, c.SampleRate, c.NoiseAmp) }
	fig := &Figure{
		ID:     "ablation-fmsnr",
		Title:  "Cancellation vs FM channel SNR",
		XLabel: "Channel SNR (dB)",
		YLabel: "Full-band cancellation (dB)",
	}
	snrs := []float64{10, 20, 30, 40, math.Inf(1)}
	ys := make([]float64, len(snrs))
	err := parallelFor(c.Workers, len(snrs), func(i int) error {
		r, err := runScheme(c, sim.MUTEHollow, gen, func(p *sim.Params) {
			p.UseFMLink = true
			p.Channel = rf.ChannelParams{SNRdB: snrs[i], CFOHz: 500, Gain: 1, Seed: c.Seed}
		})
		if err != nil {
			return err
		}
		db, err := r.CancellationDB(50, 4000)
		if err != nil {
			return err
		}
		ys[i] = db
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := Series{Name: "MUTE_Hollow over FM"}
	for i, snr := range snrs {
		x := snr
		if math.IsInf(x, 1) {
			x = 60 // plot stand-in for a clean channel
		}
		s.X = append(s.X, x)
		s.Y = append(s.Y, ys[i])
	}
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes,
		note("cancellation at 10 dB SNR: %.1f dB vs clean channel: %.1f dB", s.Y[0], s.Y[len(s.Y)-1]))
	return fig, nil
}

// AblationNormalization compares NLMS (power-normalized) against plain
// LMS step sizes under the level swings of intermittent speech.
func AblationNormalization(c Config) (*Figure, error) {
	c = c.Defaults()
	gen := func() audio.Generator {
		return audio.NewSpeech(c.Seed+6, audio.MaleVoice, c.SampleRate, c.NoiseAmp*2)
	}
	fig := &Figure{
		ID:     "ablation-nlms",
		Title:  "Cancellation on intermittent speech (NLMS step normalization is always on in LANC; sweep µ)",
		XLabel: "mu",
		YLabel: "Full-band cancellation (dB)",
	}
	mus := []float64{0.02, 0.05, 0.1, 0.2, 0.4}
	ys := make([]float64, len(mus))
	err := parallelFor(c.Workers, len(mus), func(i int) error {
		r, err := runScheme(c, sim.MUTEHollow, gen, func(p *sim.Params) {
			p.Mu = mus[i]
		})
		if err != nil {
			return err
		}
		db, err := r.CancellationDB(50, 4000)
		if err != nil {
			return err
		}
		ys[i] = db
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := Series{Name: "MUTE_Hollow"}
	for i, mu := range mus {
		s.X = append(s.X, mu)
		s.Y = append(s.Y, ys[i])
	}
	fig.Series = []Series{s}
	best := 0
	for i := range s.Y {
		if s.Y[i] < s.Y[best] {
			best = i
		}
	}
	fig.Notes = append(fig.Notes, note("best µ = %g (%.1f dB)", s.X[best], s.Y[best]))
	return fig, nil
}

// registry is every experiment in paper order, keyed by figure id. All,
// ByID and cmd/mutebench -list read it.
var registry = []struct {
	id  string
	run func(Config) (*Figure, error)
}{
	{"fig8", Fig8},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"fig15", Fig15},
	{"fig16", Fig16},
	{"fig17", Fig17},
	{"fig18", Fig18},
	{"fig19", Fig19},
	{"lookahead", LookaheadTable},
	{"ablation-taps", AblationTaps},
	{"ablation-fmsnr", AblationFMSNR},
	{"ablation-nlms", AblationNormalization},
	{"variants", Variants},
	{"mobility", Mobility},
	{"contention", Contention},
	{"tracker", TrackerExperiment},
	{"multisource", MultiSource},
	{"ablation-rls", AblationRLS},
	{"loss", LossSweep},
	{"outage", OutageSweep},
	{"drift", DriftSweep},
	{"fdaf", FdafSweep},
	{"mesh", MeshSweep},
}

// IDs lists every experiment id in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// All runs every experiment in paper order; used by cmd/mutebench -fig all.
// Whole figures fan out across the worker pool on top of the intra-figure
// parallelism, so small figures fill the cores the big ones leave idle; the
// returned slice is always in paper order.
func All(c Config) ([]*Figure, error) {
	c = c.Defaults()
	out := make([]*Figure, len(registry))
	err := parallelFor(c.Workers, len(registry), func(i int) error {
		fig, err := registry[i].run(c)
		if err != nil {
			return err
		}
		out[i] = fig
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ByID resolves an experiment by its figure id.
func ByID(id string) (func(Config) (*Figure, error), bool) {
	for _, e := range registry {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}
