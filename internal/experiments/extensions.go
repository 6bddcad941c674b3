package experiments

import (
	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/dsp"
	"mute/internal/mesh"
	"mute/internal/rf"
	"mute/internal/sim"
)

// Variants compares the architectural variants of Section 4.3 under the
// standard white-noise scene: the evaluated wall relay, the personal
// tabletop (DSP at the relay, paying a control-loop round trip), and smart
// noise (relay attached to the source, maximal lookahead).
func Variants(c Config) (*Figure, error) {
	c = c.Defaults()
	gen := func() audio.Generator { return audio.NewWhiteNoise(c.Seed, c.SampleRate, c.NoiseAmp) }
	fig := &Figure{
		ID:     "variants",
		Title:  "Architectural variants (Section 4.3)",
		XLabel: "Variant index",
		YLabel: "Full-band cancellation (dB)",
	}
	cases := []struct {
		name string
		set  func(*sim.Params)
	}{
		{"WallRelay", func(*sim.Params) {}},
		{"Tabletop (loop 8)", func(p *sim.Params) { p.ControlLoopDelaySamples = 8 }},
		{"Tabletop (loop 40)", func(p *sim.Params) { p.ControlLoopDelaySamples = 40 }},
		{"SmartNoise", func(p *sim.Params) { p.Scene = p.Scene.RelayOnSource() }},
	}
	type out struct {
		db   float64
		la   int
		taps int
	}
	outs := make([]out, len(cases))
	err := parallelFor(c.Workers, len(cases), func(i int) error {
		p := sim.DefaultParams(sim.DefaultScene(gen()))
		p.Duration = c.Duration
		p.Seed = c.Seed
		cases[i].set(&p)
		r, err := sim.Run(p, sim.MUTEHollow)
		if err != nil {
			return err
		}
		db, err := r.CancellationDB(50, 4000)
		if err != nil {
			return err
		}
		outs[i] = out{db: db, la: r.LookaheadSamples, taps: r.UsedNonCausalTaps}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := Series{Name: "MUTE variants"}
	for i, cs := range cases {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, outs[i].db)
		fig.Notes = append(fig.Notes, note("%s: %.1f dB (lookahead %d samples, N=%d)",
			cs.name, outs[i].db, outs[i].la, outs[i].taps))
	}
	fig.Series = []Series{s}
	return fig, nil
}

// Mobility measures the head-mobility cost (Section 6): the ear device
// drifts across the room during the run, forcing the adaptive filter to
// track a changing channel.
func Mobility(c Config) (*Figure, error) {
	c = c.Defaults()
	gen := func() audio.Generator { return audio.NewWhiteNoise(c.Seed, c.SampleRate, c.NoiseAmp) }
	fig := &Figure{
		ID:     "mobility",
		Title:  "Head mobility: cancellation vs ear drift during the run",
		XLabel: "Drift (m)",
		YLabel: "Full-band cancellation (dB)",
	}
	drifts := []float64{0, 0.3, 0.6, 1.2}
	ys := make([]float64, len(drifts))
	err := parallelFor(c.Workers, len(drifts), func(i int) error {
		p := sim.DefaultParams(sim.DefaultScene(gen()))
		p.Duration = c.Duration
		p.Seed = c.Seed
		end := p.Scene.EarPos
		end.Y += drifts[i]
		if !p.Scene.Room.Inside(end) {
			end.Y = p.Scene.EarPos.Y - drifts[i]
		}
		p.EarEnd = &end
		r, err := sim.Run(p, sim.MUTEHollow)
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
	s := Series{Name: "MUTE_Hollow, moving ear"}
	for i, drift := range drifts {
		s.X = append(s.X, drift)
		s.Y = append(s.Y, ys[i])
	}
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes,
		note("static %.1f dB vs 1.2 m drift %.1f dB — mobility costs convergence, as Section 6 anticipates", s.Y[0], s.Y[len(s.Y)-1]))
	return fig, nil
}

// Contention quantifies Section 6's RF coexistence argument: how much of
// the 900 MHz ISM band a deployment of relays occupies, and the audio
// penalty of an un-coordinated co-channel transmitter vs a carrier-sensed
// one.
func Contention(c Config) (*Figure, error) {
	c = c.Defaults()
	band := rf.DefaultISMBand()
	fm := rf.DefaultFMParams()
	fig := &Figure{
		ID:     "contention",
		Title:  "ISM-band occupancy and co-channel interference (Section 6)",
		XLabel: "Relays",
		YLabel: "Band fraction occupied",
	}
	s := Series{Name: "Occupied fraction"}
	for _, n := range []int{1, 4, 16, 64} {
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, rf.FractionOccupied(band, fm, n))
	}
	fig.Series = []Series{s}
	allocs, err := rf.AllocateCarriers(band, fm, 4)
	if err != nil {
		return nil, err
	}
	victim := allocs[0]
	uncoordinated := rf.CoChannelInterference(victim, victim, 0)
	sensed, err := rf.FindClearCarrier(band, fm, allocs)
	if err != nil {
		return nil, err
	}
	coordinated := rf.CoChannelInterference(victim, rf.Allocation{CarrierHz: sensed, BandwidthHz: victim.BandwidthHz}, 0)
	fig.Notes = append(fig.Notes,
		note("4 relays occupy %.3f%% of the 26 MHz band (paper: 'a small fraction')", 100*rf.FractionOccupied(band, fm, 4)),
		note("co-channel equal-power interferer costs %.0f dB audio SNR; carrier-sensed allocation costs %.0f dB", uncoordinated, coordinated),
	)
	return fig, nil
}

// TrackerExperiment exercises the Section 4.2 periodic re-correlation: the
// sound source jumps between two positions and the mesh supervisor must
// re-associate with the relay nearest the active position.
func TrackerExperiment(c Config) (*Figure, error) {
	c = c.Defaults()
	room := acoustics.DefaultRoom()
	client := acoustics.Point{X: 2.5, Y: 2.0, Z: 1.2}
	relayPos := []acoustics.Point{
		{X: 0.4, Y: 2.0, Z: 1.5},
		{X: 4.6, Y: 2.0, Z: 1.5},
	}
	srcPos := []acoustics.Point{
		{X: 0.8, Y: 2.0, Z: 1.4}, // near relay 0
		{X: 4.2, Y: 2.0, Z: 1.4}, // near relay 1
	}
	fs := c.SampleRate
	segment := int(2 * fs)

	// Precompute channels per (source, receiver).
	type chans struct {
		toClient []float64
		toRelay  [][]float64
	}
	var cc []chans
	for _, sp := range srcPos {
		h, err := room.ImpulseResponse(sp, client, fs)
		if err != nil {
			return nil, err
		}
		entry := chans{toClient: h}
		for _, rp := range relayPos {
			hr, err := room.ImpulseResponse(sp, rp, fs)
			if err != nil {
				return nil, err
			}
			entry.toRelay = append(entry.toRelay, hr)
		}
		cc = append(cc, entry)
	}
	// The ear associates through the relay mesh's supervisor — the one
	// relay re-selection design — with both relays joined for the whole
	// run and every stream genuinely received.
	sup, err := mesh.NewSupervisor(mesh.Config{
		Capacity:      len(relayPos),
		EarPos:        client,
		WindowSamples: 2048,
		MaxLagSamples: int(0.012 * fs),
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	for r, rp := range relayPos {
		if _, err := sup.Join(int64(r), rp); err != nil {
			return nil, err
		}
	}
	row := make([]float64, len(relayPos))
	allReal := make([]bool, len(relayPos))
	for r := range allReal {
		allReal[r] = true
	}
	fig := &Figure{
		ID:     "tracker",
		Title:  "Periodic re-correlation follows a moving source (Section 4.2)",
		XLabel: "Segment",
		YLabel: "Associated relay (0 = none)",
	}
	s := Series{Name: "Association"}
	correct := 0
	total := 0
	for seg := 0; seg < 4; seg++ {
		active := seg % 2
		wave := audio.Render(audio.NewWhiteNoise(c.Seed+uint64(seg), fs, c.NoiseAmp), segment)
		local := dsp.ConvolveSame(wave, cc[active].toClient)
		fwd := make([][]float64, len(relayPos))
		for r := range relayPos {
			fwd[r] = dsp.ConvolveSame(wave, cc[active].toRelay[r])
		}
		for i := 0; i < segment; i++ {
			for r := range relayPos {
				row[r] = fwd[r][i]
			}
			if _, _, err := sup.Push(local[i], row, allReal); err != nil {
				return nil, err
			}
		}
		s.X = append(s.X, float64(seg))
		s.Y = append(s.Y, float64(sup.Current()+1))
		total++
		if sup.Current() == active {
			correct++
		}
	}
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes,
		note("tracker matched the active source's nearest relay in %d/%d segments with %d association switches",
			correct, total, sup.Report().Handoffs))
	return fig, nil
}
