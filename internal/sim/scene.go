// Package sim ties every substrate together into the end-to-end MUTE
// experiment platform of Figure 2: a noise source in a simulated room, an
// IoT relay with an FM wireless link, an ear device running LANC (or the
// conventional-headphone baseline), and a measurement microphone at the
// ear. It reproduces the paper's four comparison schemes — MUTE_Hollow,
// MUTE+Passive, Bose_Active and Bose_Overall — under identical acoustics.
package sim

import (
	"fmt"

	"mute/internal/acoustics"
	"mute/internal/anc"
	"mute/internal/audio"
	"mute/internal/core"
	"mute/internal/dsp"
)

// Source is a sound source at a position in the room.
type Source struct {
	// Pos is the source position.
	Pos acoustics.Point
	// Gen produces the source waveform.
	Gen audio.Generator
}

// Scene is the physical layout of an experiment.
type Scene struct {
	// Room is the simulated room.
	Room acoustics.Room
	// Sources are the active sound sources; the first is the "dominant"
	// source used for lookahead budgeting.
	Sources []Source
	// RelayPos is where the IoT relay (reference microphone) is mounted.
	RelayPos acoustics.Point
	// ExtraRelays mounts one further relay per further source (the
	// paper's §6 multi-source direction): ExtraRelays[i] pairs with
	// Sources[i+1] for its lookahead, and the ear runs one LANC bank per
	// relay. Empty is the single-relay system.
	ExtraRelays []acoustics.Point
	// EarPos is the ear-device position (error microphone, anti-noise
	// speaker, and measurement microphone are co-located here, as in the
	// paper's platform).
	EarPos acoustics.Point
	// SampleRate is the DSP processing rate (the paper's 8 kHz).
	SampleRate float64
}

// DefaultScene places one source near the door of the default room, the
// relay on the wall next to it, and the ear device across the room —
// the Figure 1 office layout.
func DefaultScene(gen audio.Generator) Scene {
	return Scene{
		Room: acoustics.DefaultRoom(),
		Sources: []Source{
			{Pos: acoustics.Point{X: 0.5, Y: 2.0, Z: 1.5}, Gen: gen},
		},
		RelayPos:   acoustics.Point{X: 1.0, Y: 2.0, Z: 1.5},
		EarPos:     acoustics.Point{X: 4.0, Y: 2.0, Z: 1.2},
		SampleRate: 8000,
	}
}

// Validate checks scene geometry.
func (s Scene) Validate() error {
	if err := s.Room.Validate(); err != nil {
		return err
	}
	if len(s.Sources) == 0 {
		return fmt.Errorf("sim: scene needs at least one source")
	}
	for i, src := range s.Sources {
		if !s.Room.Inside(src.Pos) {
			return fmt.Errorf("sim: source %d at %v outside room", i, src.Pos)
		}
		if src.Gen == nil {
			return fmt.Errorf("sim: source %d has no generator", i)
		}
		if src.Gen.SampleRate() != s.SampleRate {
			return fmt.Errorf("sim: source %d rate %g != scene rate %g", i, src.Gen.SampleRate(), s.SampleRate)
		}
	}
	if !s.Room.Inside(s.RelayPos) {
		return fmt.Errorf("sim: relay at %v outside room", s.RelayPos)
	}
	if len(s.ExtraRelays) >= len(s.Sources) {
		return fmt.Errorf("sim: %d extra relays for %d sources: relay i+1 pairs with source i+1",
			len(s.ExtraRelays), len(s.Sources))
	}
	for i, pos := range s.ExtraRelays {
		if !s.Room.Inside(pos) {
			return fmt.Errorf("sim: extra relay %d at %v outside room", i, pos)
		}
	}
	if !s.Room.Inside(s.EarPos) {
		return fmt.Errorf("sim: ear device at %v outside room", s.EarPos)
	}
	if s.SampleRate <= 0 {
		return fmt.Errorf("sim: sample rate %g must be positive", s.SampleRate)
	}
	return nil
}

// RelayOnSource returns the scene with the relay taped to the dominant
// source (Figure 10(c), smart noise): 10 cm beside it, so the reference
// microphone hears the source with negligible acoustic delay and the
// lookahead is maximal.
func (s Scene) RelayOnSource() Scene {
	src := s.Sources[0].Pos
	s.RelayPos = acoustics.Point{X: src.X + 0.1, Y: src.Y, Z: src.Z}
	if !s.Room.Inside(s.RelayPos) {
		s.RelayPos.X = src.X - 0.1
	}
	return s
}

// LookaheadSamples returns the geometric lookahead (in samples) the relay
// provides for the dominant source: acoustic source→ear delay minus
// source→relay delay (Equation 4).
func (s Scene) LookaheadSamples() int { return s.lookahead(s.Sources[0].Pos, s.RelayPos) }

// relayLookaheads returns every relay's lookahead over its paired source:
// RelayPos over Sources[0], then ExtraRelays[i] over Sources[i+1].
func (s Scene) relayLookaheads() []int {
	las := []int{s.LookaheadSamples()}
	for i, pos := range s.ExtraRelays {
		las = append(las, s.lookahead(s.Sources[i+1].Pos, pos))
	}
	return las
}

// lookahead is how many samples earlier a relay at relay hears src than
// the ear does.
func (s Scene) lookahead(src, relay acoustics.Point) int {
	d := acoustics.DirectDelaySamples(src, s.EarPos, s.SampleRate) -
		acoustics.DirectDelaySamples(src, relay, s.SampleRate)
	return int(d)
}

// Transducer models the combined frequency response of the cheap anti-noise
// speaker and microphone (Figure 13): weak response below ~120 Hz, a mild
// mid resonance, and roll-off approaching Nyquist.
type Transducer struct {
	chain *dsp.BiquadChain
}

// NewTransducer builds the cheap-hardware transducer model for the given
// sample rate.
func NewTransducer(sampleRate float64) (*Transducer, error) {
	hp, err := dsp.NewHighPassBiquad(120, sampleRate, 0.8)
	if err != nil {
		return nil, fmt.Errorf("sim: transducer HP: %w", err)
	}
	peak, err := dsp.NewPeakBiquad(900, sampleRate, 1.2, 2)
	if err != nil {
		return nil, fmt.Errorf("sim: transducer peak: %w", err)
	}
	lp, err := dsp.NewLowPassBiquad(0.47*sampleRate, sampleRate, 0.7071)
	if err != nil {
		return nil, fmt.Errorf("sim: transducer LP: %w", err)
	}
	return &Transducer{chain: dsp.NewBiquadChain(hp, peak, lp)}, nil
}

// Response returns the magnitude response at f Hz.
func (t *Transducer) Response(fHz, sampleRate float64) float64 {
	return t.chain.Response(fHz, sampleRate)
}

// ImpulseResponse returns the first n samples of the transducer impulse
// response (state is reset afterwards).
func (t *Transducer) ImpulseResponse(n int) []float64 {
	t.chain.Reset()
	in := make([]float64, n)
	in[0] = 1
	out := t.chain.ProcessBlock(in)
	t.chain.Reset()
	return out
}

// secondaryChain returns the true speaker→error-mic impulse response of
// an ear device — its processing-latency kernel delay convolved with the
// shared acoustic part (transducer response and the centimeter air gap) —
// together with the ĥ_se estimate calibrated by probing that chain, as the
// paper does with a known preamble.
func secondaryChain(p Params, delay []float64) (secIR, secEst []float64, err error) {
	trans, err := NewTransducer(p.Scene.SampleRate)
	if err != nil {
		return nil, nil, err
	}
	secIR = dsp.Convolve(delay, dsp.Convolve(trans.ImpulseResponse(48), core.EarSecondaryPath()))
	secEst, err = anc.EstimateSecondaryPath(secIR, len(secIR)+8, 0, p.EarMicNoiseRMS, p.Seed+11)
	return secIR, secEst, err
}

// sampleDelay is the kernel of an n-sample delay: MUTE's whole samples of
// converter latency.
func sampleDelay(n int) []float64 {
	k := make([]float64, n+1)
	k[n] = 1
	return k
}
