package experiments

import (
	"mute/internal/audio"
	"mute/internal/sim"
)

// Fig12 reproduces the overall-cancellation comparison (Figure 12): the
// cancellation-vs-frequency curves of Bose_Active, Bose_Overall,
// MUTE_Hollow and MUTE+Passive under wide-band white noise, plus the
// section's headline band averages (MUTE vs Bose within 1 kHz, the 0.9 dB
// Bose_Overall edge over MUTE_Hollow, and the 8.9 dB MUTE+Passive win).
func Fig12(c Config) (*Figure, error) {
	c = c.Defaults()
	gen := func() audio.Generator { return audio.NewWhiteNoise(c.Seed, c.SampleRate, c.NoiseAmp) }
	fig := &Figure{
		ID:     "fig12",
		Title:  "Overall noise cancellation, wide-band white noise",
		XLabel: "Frequency (Hz)",
		YLabel: "Cancellation (dB)",
	}
	// Bose_Active (ANC on vs off, both under the cup) and Bose_Overall (on
	// vs the open ear) are two views of one headphone run, so three
	// simulations give the four curves.
	type runSpec struct {
		scheme sim.Scheme
		active string // name of the On-vs-Off curve, "" for none
		name   string // name of the On-vs-Open curve
	}
	specs := []runSpec{
		{sim.BoseOverall, "Bose_Active", "Bose_Overall"},
		{sim.MUTEHollow, "", "MUTE_Hollow"},
		{sim.MUTEPassive, "", "MUTE+Passive"},
	}
	// The runs are independent simulations of the same scene; fan them
	// out and assemble in spec order so output is identical to the
	// sequential path. Telemetry follows the same discipline: one child
	// registry per run, merged in spec order afterwards.
	outs := make([][]Series, len(specs))
	kids := telemetryChildren(c.Telemetry, len(specs))
	err := parallelFor(c.Workers, len(specs), func(i int) error {
		spec := specs[i]
		r, err := runScheme(c, spec.scheme, gen, func(p *sim.Params) {
			p.Telemetry = childTelemetry(kids, i)
		})
		if err != nil {
			return err
		}
		if spec.active != "" {
			s, err := activeSeries(spec.active, r, c.Bands)
			if err != nil {
				return err
			}
			outs[i] = append(outs[i], s)
		}
		s, err := spectrumSeries(spec.name, r, c.Bands)
		if err != nil {
			return err
		}
		outs[i] = append(outs[i], s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	mergeTelemetry(c.Telemetry, kids)
	results := map[string]Series{}
	for _, ss := range outs {
		for _, s := range ss {
			fig.Series = append(fig.Series, s)
			results[s.Name] = s
		}
	}
	muteLow := bandAvg(results["MUTE_Hollow"], 0, 1000)
	boseActiveLow := bandAvg(results["Bose_Active"], 0, 1000)
	muteFull := bandAvg(results["MUTE_Hollow"], 0, 4000)
	boseFull := bandAvg(results["Bose_Overall"], 0, 4000)
	mutePassiveFull := bandAvg(results["MUTE+Passive"], 0, 4000)
	boseActiveHigh := bandAvg(results["Bose_Active"], 1000, 4000)
	fig.Notes = append(fig.Notes,
		note("within 1 kHz: MUTE_Hollow %.1f dB vs Bose_Active %.1f dB (MUTE better by %.1f dB; paper: 6.7 dB)",
			muteLow, boseActiveLow, boseActiveLow-muteLow),
		note("full band: Bose_Overall %.1f dB vs MUTE_Hollow %.1f dB (Bose better by %.1f dB; paper: 0.9 dB)",
			boseFull, muteFull, muteFull-boseFull),
		note("full band: MUTE+Passive %.1f dB vs Bose_Overall %.1f dB (MUTE better by %.1f dB; paper: 8.9 dB)",
			mutePassiveFull, boseFull, boseFull-mutePassiveFull),
		note("Bose_Active above 1 kHz: %.1f dB (paper: ≈0, active cancellation absent)", boseActiveHigh),
	)
	return fig, nil
}
