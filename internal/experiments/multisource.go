package experiments

import (
	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/sim"
)

// MultiSource implements and measures the paper's Section 6 multi-source
// direction: two independent wide-band sources play simultaneously from
// different positions. A single relay/reference cannot cancel the mixture;
// one relay per source with a multi-reference LANC can.
func MultiSource(c Config) (*Figure, error) {
	c = c.Defaults()
	makeScene := func() sim.Scene {
		scene := sim.DefaultScene(audio.NewWhiteNoise(c.Seed, c.SampleRate, c.NoiseAmp*0.8))
		scene.Sources = append(scene.Sources, sim.Source{
			Pos: acoustics.Point{X: 1.0, Y: 3.5, Z: 1.5},
			Gen: audio.NewWhiteNoise(c.Seed+100, c.SampleRate, c.NoiseAmp*0.8),
		})
		return scene
	}
	fig := &Figure{
		ID:     "multisource",
		Title:  "Two simultaneous noise sources: single vs multi-reference LANC",
		XLabel: "Configuration (0 = single relay, 1 = relay per source)",
		YLabel: "Full-band cancellation (dB)",
	}
	// Single-relay and multi-relay configurations are independent; each
	// builds its own scene from explicit seeds.
	dbs := make([]float64, 2)
	err := parallelFor(c.Workers, 2, func(i int) error {
		p := sim.DefaultParams(makeScene())
		p.Duration = c.Duration
		p.Seed = c.Seed
		if i == 1 {
			p.Scene.ExtraRelays = []acoustics.Point{{X: 1.2, Y: 3.3, Z: 1.5}}
		}
		r, err := sim.Run(p, sim.MUTEHollow)
		if err != nil {
			return err
		}
		dbs[i], err = r.CancellationDB(50, 4000)
		return err
	})
	if err != nil {
		return nil, err
	}
	sdb, mdb := dbs[0], dbs[1]
	fig.Series = []Series{{Name: "Cancellation", X: []float64{0, 1}, Y: []float64{sdb, mdb}}}
	fig.Notes = append(fig.Notes,
		note("single reference %.1f dB vs multi-reference %.1f dB on two simultaneous sources (paper: future work, 'one microphone for each noise channel')", sdb, mdb))
	return fig, nil
}
