package sim

import (
	"fmt"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
	"mute/internal/graph"
)

// Variant selects one of the paper's architectural variants (Section 4.3),
// which redistribute the reference microphone, DSP, and speaker across the
// relay, a server, and the ear device.
type Variant int

const (
	// WallRelay is the basic architecture evaluated in Section 5: relay
	// forwards raw sound, the ear device hosts the DSP.
	WallRelay Variant = iota
	// Tabletop is Figure 10(a): the portable relay hosts the DSP and
	// sends the *anti-noise* to the ear device; the ear device returns
	// the error signal. Both hops add RF round-trip latency (modeled in
	// samples) that the lookahead budget must absorb.
	Tabletop
	// SmartNoise is Figure 10(c): the relay is attached to the noise
	// source itself, giving maximal lookahead.
	SmartNoise
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case WallRelay:
		return "WallRelay"
	case Tabletop:
		return "Tabletop"
	case SmartNoise:
		return "SmartNoise"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// VariantParams configures a variant run.
type VariantParams struct {
	// Base carries the common simulation parameters.
	Base Params
	// Variant selects the architecture.
	Variant Variant
	// ControlLoopDelaySamples is the extra round-trip latency the
	// Tabletop variant pays: anti-noise downlink plus error-feedback
	// uplink, in samples (digital framing, not propagation). Ignored by
	// the other variants.
	ControlLoopDelaySamples int
}

// RunVariant simulates an architectural variant with the MUTE algorithm
// and returns the standard Result. SmartNoise overrides the relay position
// to sit at the (dominant) noise source; Tabletop charges the control-loop
// delay against the lookahead budget and delays error feedback by the
// uplink leg.
func RunVariant(vp VariantParams) (*Result, error) {
	p := vp.Base
	switch vp.Variant {
	case WallRelay:
		return Run(p, MUTEHollow)
	case SmartNoise:
		// Relay taped to the noise source: reference microphone hears the
		// source with negligible acoustic delay.
		src := p.Scene.Sources[0].Pos
		near := acoustics.Point{X: src.X + 0.1, Y: src.Y, Z: src.Z}
		if !p.Scene.Room.Inside(near) {
			near = acoustics.Point{X: src.X - 0.1, Y: src.Y, Z: src.Z}
		}
		p.Scene.RelayPos = near
		return Run(p, MUTEHollow)
	case Tabletop:
		return runTabletop(vp)
	default:
		return nil, fmt.Errorf("sim: unknown variant %v", vp.Variant)
	}
}

// runTabletop simulates Figure 10(a): the DSP lives at the relay. The
// anti-noise is computed remotely and reaches the ear speaker after the
// downlink delay; the error microphone's signal reaches the DSP after the
// uplink delay. Algorithmically this is LANC with (a) the control-loop
// delay folded into the secondary path and (b) stale error feedback.
func runTabletop(vp VariantParams) (*Result, error) {
	p := vp.Base
	if err := p.Scene.Validate(); err != nil {
		return nil, err
	}
	if p.Duration <= 0 {
		return nil, fmt.Errorf("sim: duration %g must be positive", p.Duration)
	}
	loop := vp.ControlLoopDelaySamples
	if loop < 0 {
		return nil, fmt.Errorf("sim: negative control loop delay %d", loop)
	}
	fs := p.Scene.SampleRate
	n := int(p.Duration * fs)

	// Acoustic legs (identical to Run).
	var refStreams, earStreams [][]float64
	for _, src := range p.Scene.Sources {
		hnr, err := p.Scene.Room.ImpulseResponse(src.Pos, p.Scene.RelayPos, fs)
		if err != nil {
			return nil, err
		}
		hne, err := p.Scene.Room.ImpulseResponse(src.Pos, p.Scene.EarPos, fs)
		if err != nil {
			return nil, err
		}
		wave := audio.Render(src.Gen, n)
		refStreams = append(refStreams, dsp.ConvolveSame(wave, hnr))
		earStreams = append(earStreams, dsp.ConvolveSame(wave, hne))
	}
	ref := sumStreams(refStreams, n)
	open := sumStreams(earStreams, n)

	// Secondary chain: pipeline + downlink framing delay + transducer + air.
	secIR, secEst, err := secondaryChain(p, sampleDelay(p.Pipeline.Total()+loop/2)) // downlink half of the loop
	if err != nil {
		return nil, err
	}

	// The downlink half of the loop is charged to the ear device's
	// speaker latency; the uplink half delays the fed-back error.
	la := p.Scene.LookaheadSamples()
	earNoise := audio.NewRNG(p.Seed + 23)
	on := make([]float64, n)
	residual := make([]float64, n)
	pl, err := graph.Build(graph.Config{
		SampleRate: fs,
		Lookahead:  la,
		Pipeline: core.PipelineDelays{
			ADC: p.Pipeline.ADC, DSP: p.Pipeline.DSP,
			DAC: p.Pipeline.DAC, Speaker: p.Pipeline.Speaker + loop/2,
		},
		MaxNonCausalTaps: p.MaxNonCausalTaps,
		ErrorDelay:       loop - loop/2,
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
		Noise:       earNoise,
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
