package audio

import (
	"fmt"
	"math"

	"mute/internal/dsp"
)

// Generator produces an unbounded mono sample stream at a fixed rate.
// Implementations are deterministic given their construction parameters.
type Generator interface {
	// Next returns the next sample, nominally in [-1, 1].
	Next() float64
	// SampleRate returns the stream's sample rate in Hz.
	SampleRate() float64
}

// Render pulls n samples from g into a new slice.
func Render(g Generator, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// WhiteNoise is the paper's "most unpredictable" wide-band test signal
// (Figure 12): independent uniform samples, optionally band-limited.
type WhiteNoise struct {
	rng  *RNG
	rate float64
	amp  float64
	lp   *dsp.FIRFilter // nil when full band
}

// NewWhiteNoise creates a white-noise source with peak amplitude amp.
func NewWhiteNoise(seed uint64, sampleRate, amp float64) *WhiteNoise {
	return &WhiteNoise{rng: NewRNG(seed), rate: sampleRate, amp: amp}
}

// NewBandLimitedNoise creates white noise low-passed at cutoffHz.
func NewBandLimitedNoise(seed uint64, sampleRate, amp, cutoffHz float64) (*WhiteNoise, error) {
	h, err := dsp.LowPassFIR(cutoffHz, sampleRate, 63, dsp.Hamming)
	if err != nil {
		return nil, fmt.Errorf("audio: band-limited noise: %w", err)
	}
	return &WhiteNoise{rng: NewRNG(seed), rate: sampleRate, amp: amp, lp: dsp.NewFIRFilter(h)}, nil
}

// Next returns the next noise sample.
func (w *WhiteNoise) Next() float64 {
	s := w.rng.Uniform() * w.amp
	if w.lp != nil {
		s = w.lp.Process(s)
	}
	return s
}

// SampleRate implements Generator.
func (w *WhiteNoise) SampleRate() float64 { return w.rate }

// PinkNoise approximates 1/f noise with the Voss–McCartney multi-rate sum,
// a common model for broadband environmental rumble.
type PinkNoise struct {
	rng     *RNG
	rate    float64
	amp     float64
	rows    [16]float64
	counter uint64
	runsum  float64
}

// NewPinkNoise creates a pink-noise source with peak amplitude roughly amp.
func NewPinkNoise(seed uint64, sampleRate, amp float64) *PinkNoise {
	p := &PinkNoise{rng: NewRNG(seed), rate: sampleRate, amp: amp}
	for i := range p.rows {
		p.rows[i] = p.rng.Uniform()
		p.runsum += p.rows[i]
	}
	return p
}

// Next returns the next pink-noise sample.
func (p *PinkNoise) Next() float64 {
	p.counter++
	// Index of lowest set bit selects which row updates.
	n := p.counter
	row := 0
	for n&1 == 0 && row < len(p.rows)-1 {
		n >>= 1
		row++
	}
	p.runsum -= p.rows[row]
	p.rows[row] = p.rng.Uniform()
	p.runsum += p.rows[row]
	return p.amp * p.runsum / float64(len(p.rows))
}

// SampleRate implements Generator.
func (p *PinkNoise) SampleRate() float64 { return p.rate }

// Tone is a pure sinusoid.
type Tone struct {
	rate  float64
	amp   float64
	phase float64
	step  float64
}

// NewTone creates a sinusoid at freqHz with the given amplitude and initial
// phase (radians).
func NewTone(freqHz, sampleRate, amp, phase float64) *Tone {
	return &Tone{rate: sampleRate, amp: amp, phase: phase, step: 2 * math.Pi * freqHz / sampleRate}
}

// Next returns the next tone sample.
func (t *Tone) Next() float64 {
	s := t.amp * math.Sin(t.phase)
	t.phase += t.step
	if t.phase > 2*math.Pi {
		t.phase -= 2 * math.Pi
	}
	return s
}

// SampleRate implements Generator.
func (t *Tone) SampleRate() float64 { return t.rate }

// MachineHum models the periodic machine noise that conventional ANC
// headphones excel at: a low fundamental with decaying harmonics plus a
// small broadband floor.
type MachineHum struct {
	rate      float64
	harmonics []*Tone
	floor     *WhiteNoise
}

// NewMachineHum creates a hum with the given fundamental (e.g. 120 Hz)
// and harmonic count.
func NewMachineHum(seed uint64, fundamentalHz, sampleRate, amp float64, nHarmonics int) *MachineHum {
	m := &MachineHum{rate: sampleRate}
	rng := NewRNG(seed)
	for k := 1; k <= nHarmonics; k++ {
		f := fundamentalHz * float64(k)
		if f >= sampleRate/2 {
			break
		}
		a := amp / math.Pow(float64(k), 1.2)
		m.harmonics = append(m.harmonics, NewTone(f, sampleRate, a, rng.Range(0, 2*math.Pi)))
	}
	m.floor = NewWhiteNoise(seed+1, sampleRate, amp*0.03)
	return m
}

// Next returns the next hum sample.
func (m *MachineHum) Next() float64 {
	var s float64
	for _, h := range m.harmonics {
		s += h.Next()
	}
	return s + m.floor.Next()
}

// SampleRate implements Generator.
func (m *MachineHum) SampleRate() float64 { return m.rate }

// ConstructionNoise models impulsive wide-band machinery: random hammer
// strikes (exponentially decaying broadband bursts) over an engine rumble.
type ConstructionNoise struct {
	rng      *RNG
	rate     float64
	amp      float64
	rumble   *PinkNoise
	envelope float64
	burst    *WhiteNoise
}

// NewConstructionNoise creates a construction-site source.
func NewConstructionNoise(seed uint64, sampleRate, amp float64) *ConstructionNoise {
	return &ConstructionNoise{
		rng:    NewRNG(seed),
		rate:   sampleRate,
		amp:    amp,
		rumble: NewPinkNoise(seed+1, sampleRate, amp*0.4),
		burst:  NewWhiteNoise(seed+2, sampleRate, 1),
	}
}

// Next returns the next construction sample.
func (c *ConstructionNoise) Next() float64 {
	// Poisson-ish strikes: ~3 per second.
	if c.rng.Float64() < 3.0/c.rate {
		c.envelope = 1
	}
	s := c.rumble.Next() + c.amp*c.envelope*c.burst.Next()
	c.envelope *= math.Exp(-40 / c.rate) // ~25 ms decay constant
	return s
}

// SampleRate implements Generator.
func (c *ConstructionNoise) SampleRate() float64 { return c.rate }

// SliceSource replays a fixed sample buffer (looping), letting recorded or
// pre-rendered material drive the simulator.
type SliceSource struct {
	data []float64
	rate float64
	pos  int
	loop bool
}

// NewSliceSource wraps data at the given rate. If loop is false the source
// emits zeros after the data is exhausted.
func NewSliceSource(data []float64, sampleRate float64, loop bool) *SliceSource {
	return &SliceSource{data: data, rate: sampleRate, loop: loop}
}

// Next returns the next buffered sample.
func (s *SliceSource) Next() float64 {
	if s.pos >= len(s.data) {
		if !s.loop || len(s.data) == 0 {
			return 0
		}
		s.pos = 0
	}
	v := s.data[s.pos]
	s.pos++
	return v
}

// SampleRate implements Generator.
func (s *SliceSource) SampleRate() float64 { return s.rate }
