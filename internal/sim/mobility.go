package sim

import (
	"fmt"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/dsp"
	"mute/internal/graph"
)

// MobilityParams configures a head-mobility run (Section 6, "Head
// Mobility"): the ear device drifts along a straight segment during the
// run, so the source→ear channel varies with time and the adaptive filter
// must track it. The simulator recomputes the ear-side impulse response
// every hopSeconds and cross-fades between segments.
type MobilityParams struct {
	// Base carries the common simulation parameters; Base.Scene.EarPos is
	// the starting position.
	Base Params
	// EarEnd is the ear position at the end of the run.
	EarEnd acoustics.Point
}

// hopSeconds is how often a mobility run re-samples the channel along the
// ear's path.
const hopSeconds = 0.25

// RunMobile simulates MUTE_Hollow with a moving ear device and returns the
// standard Result (Open and On are the moving-ear recordings).
func RunMobile(mp MobilityParams) (*Result, error) {
	p := mp.Base
	if err := p.Scene.Validate(); err != nil {
		return nil, err
	}
	if p.Duration <= 0 {
		return nil, fmt.Errorf("sim: duration %g must be positive", p.Duration)
	}
	if !p.Scene.Room.Inside(mp.EarEnd) {
		return nil, fmt.Errorf("sim: ear path endpoint %v outside room", mp.EarEnd)
	}
	fs := p.Scene.SampleRate
	n := int(p.Duration * fs)
	hopSamples := int(hopSeconds * fs)
	if hopSamples < 1 {
		hopSamples = 1
	}

	// Source waveforms and the (static) relay leg.
	waves := make([][]float64, len(p.Scene.Sources))
	ref := make([]float64, n)
	for i, src := range p.Scene.Sources {
		waves[i] = audio.Render(src.Gen, n)
		hnr, err := p.Scene.Room.ImpulseResponse(src.Pos, p.Scene.RelayPos, fs)
		if err != nil {
			return nil, err
		}
		leg := dsp.ConvolveSame(waves[i], hnr)
		for t := 0; t < n; t++ {
			ref[t] += leg[t]
		}
	}

	// Moving ear leg: piecewise channels with linear cross-fade across
	// each hop boundary to avoid clicks.
	start := p.Scene.EarPos
	open := make([]float64, n)
	var prev []*dsp.StreamConvolver
	var cur []*dsp.StreamConvolver
	mkChannels := func(pos acoustics.Point) ([]*dsp.StreamConvolver, error) {
		out := make([]*dsp.StreamConvolver, len(p.Scene.Sources))
		for i, src := range p.Scene.Sources {
			h, err := p.Scene.Room.ImpulseResponse(src.Pos, pos, fs)
			if err != nil {
				return nil, err
			}
			out[i] = dsp.NewStreamConvolver(h)
		}
		return out, nil
	}
	fade := hopSamples / 4
	for t := 0; t < n; t++ {
		if t%hopSamples == 0 {
			frac := float64(t) / float64(n)
			pos := acoustics.Point{
				X: start.X + (mp.EarEnd.X-start.X)*frac,
				Y: start.Y + (mp.EarEnd.Y-start.Y)*frac,
				Z: start.Z + (mp.EarEnd.Z-start.Z)*frac,
			}
			next, err := mkChannels(pos)
			if err != nil {
				return nil, err
			}
			prev = cur
			cur = next
		}
		var sNew, sOld float64
		for i := range p.Scene.Sources {
			x := waves[i][t]
			sNew += cur[i].Process(x)
			if prev != nil {
				sOld += prev[i].Process(x)
			}
		}
		if prev != nil && t%hopSamples < fade {
			w := float64(t%hopSamples) / float64(fade)
			open[t] = w*sNew + (1-w)*sOld
		} else {
			open[t] = sNew
		}
	}

	// Ear device: Run's MUTE_Hollow wiring through the one graph (no
	// passive cup, so the open-ear and under-cup fields coincide).
	secIR, secEst, err := secondaryChain(p, sampleDelay(p.Pipeline.Total()))
	if err != nil {
		return nil, err
	}
	la := p.Scene.LookaheadSamples()
	on := make([]float64, n)
	residual := make([]float64, n)
	pl, err := graph.Build(graph.Config{
		SampleRate:       fs,
		Lookahead:        la,
		Pipeline:         p.Pipeline,
		MaxNonCausalTaps: p.MaxNonCausalTaps,
		Canceller: graph.CancellerParams{
			CausalTaps:    p.CausalTaps,
			Mu:            p.Mu,
			PlainLMS:      p.PlainLMS,
			SecondaryPath: secEst,
		},
		Reference:   &graph.SliceSource{Samples: ref},
		Ambient:     &graph.SliceAmbient{Local: open, Cup: open},
		SecondaryIR: secIR,
		NoiseRMS:    p.EarMicNoiseRMS,
		Noise:       audio.NewRNG(p.Seed + 23),
		On:          on,
		Residual:    residual,
	})
	if err != nil {
		return nil, err
	}
	if err := pl.Run(n, 0); err != nil {
		return nil, err
	}
	return &Result{
		Scheme:            MUTEHollow,
		Open:              open,
		Off:               open,
		On:                on,
		Residual:          residual,
		LookaheadSamples:  la,
		Budget:            pl.Budget,
		UsedNonCausalTaps: pl.NonCausalTaps,
		SampleRate:        fs,
	}, nil
}
