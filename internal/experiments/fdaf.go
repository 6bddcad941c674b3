package experiments

import (
	"mute/internal/audio"
	"mute/internal/sim"
)

// fdafBlockSizes are the partition sizes the sweep covers. Every block
// size plans the same budget (the block costs no lookahead), so the sweep
// isolates the adaptation tradeoff: larger blocks buy throughput (fewer,
// bigger FFTs) and adapt once per block.
var fdafBlockSizes = []int{8, 16, 32, 64}

// FdafSweep compares the default time-domain LANC against the partitioned
// frequency-domain canceller (Params.BlockFDAF) across block sizes, on the
// MUTE_Hollow scheme under wide-band white noise. The one series is
// cancellation in dB, deterministic like every other figure; the notes
// carry the time-domain baseline. Throughput is the figs bench suite's
// job (mute_hollow.td and mute_hollow.fdaf32), not the figure's.
func FdafSweep(c Config) (*Figure, error) {
	c = c.Defaults()
	gen := func() audio.Generator { return audio.NewWhiteNoise(c.Seed, c.SampleRate, c.NoiseAmp) }
	fig := &Figure{
		ID:     "fdaf",
		Title:  "Partitioned frequency-domain LANC vs block size",
		XLabel: "Block size (samples)",
		YLabel: "Cancellation (dB)",
	}

	run := func(mutate func(*sim.Params)) (float64, error) {
		r, err := runScheme(c, sim.MUTEHollow, gen, mutate)
		if err != nil {
			return 0, err
		}
		return r.CancellationDB(50, 4000)
	}

	tdDB, err := run(nil)
	if err != nil {
		return nil, err
	}

	dbs := make([]float64, len(fdafBlockSizes))
	err = parallelFor(c.Workers, len(fdafBlockSizes), func(i int) error {
		b := fdafBlockSizes[i]
		db, err := run(func(p *sim.Params) {
			p.BlockFDAF = true
			p.BlockSize = b
		})
		if err != nil {
			return err
		}
		dbs[i] = db
		return nil
	})
	if err != nil {
		return nil, err
	}

	xs := make([]float64, len(fdafBlockSizes))
	for i, b := range fdafBlockSizes {
		xs[i] = float64(b)
	}
	fig.Series = []Series{{Name: "FDAF_dB", X: xs, Y: dbs}}
	fig.Notes = append(fig.Notes,
		note("time-domain baseline: %.1f dB", tdDB),
		note("every block size plans the time-domain budget: anti-noise sample t depends only on reference samples up to t"),
	)
	return fig, nil
}
