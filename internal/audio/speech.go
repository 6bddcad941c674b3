package audio

import (
	"math"

	"mute/internal/dsp"
)

// Voice selects the glottal pitch range of the synthetic talker.
type Voice int

// Available voices. The paper evaluates both a male and a female talker
// (Figure 14); the ranges below follow typical adult fundamental
// frequencies.
const (
	MaleVoice   Voice = iota // f0 ~ 85-155 Hz
	FemaleVoice              // f0 ~ 165-255 Hz
)

// String names the voice.
func (v Voice) String() string {
	if v == FemaleVoice {
		return "female"
	}
	return "male"
}

func (v Voice) pitchRange() (lo, hi float64) {
	if v == FemaleVoice {
		return 165, 255
	}
	return 85, 155
}

// vowel formant targets (F1, F2, F3) in Hz for a handful of vowels; values
// are textbook averages. The synthesizer hops between them per syllable.
var vowelFormants = [][3]float64{
	{730, 1090, 2440}, // /a/
	{270, 2290, 3010}, // /i/
	{300, 870, 2240},  // /u/
	{530, 1840, 2480}, // /e/
	{570, 840, 2410},  // /o/
}

// Speech synthesizes intermittent human speech: voiced syllables built
// from a pulse train shaped by formant resonators, unvoiced fricative
// bursts, and — crucially for the paper's Figure 17 experiment — random
// inter-sentence pauses that force an ANC filter to re-converge unless it
// can predict the transition.
type Speech struct {
	rng  *RNG
	rate float64
	amp  float64
	v    Voice

	// Segment state machine.
	mode      int // 0 pause, 1 voiced, 2 unvoiced
	remaining int // samples left in current segment

	// Voiced synthesis state.
	f0       float64
	phase    float64
	formants *dsp.BiquadChain
	// Unvoiced synthesis state.
	fric *dsp.FIRFilter

	// Speech/pause duty cycle control.
	PauseProb float64 // probability a new segment is a pause

	// Sentence mode groups syllables into multi-second utterances with
	// clear inter-sentence gaps, matching how the paper's intermittent
	// talker behaves in the profiling experiment.
	sentenceMode bool
	utterRemain  int // samples left in the current utterance (sentence mode)
	gapRemain    int // samples left in the current inter-sentence gap
}

// NewSpeech creates a talker with the given voice. amp scales the output.
func NewSpeech(seed uint64, v Voice, sampleRate, amp float64) *Speech {
	s := &Speech{
		rng:       NewRNG(seed),
		rate:      sampleRate,
		amp:       amp,
		v:         v,
		PauseProb: 0.3,
	}
	s.pickSegment()
	return s
}

// NewContinuousSpeech creates a talker that never pauses — useful when the
// experiment wants steady speech spectra without intermittency.
func NewContinuousSpeech(seed uint64, v Voice, sampleRate, amp float64) *Speech {
	s := NewSpeech(seed, v, sampleRate, amp)
	s.PauseProb = 0
	s.pickSegment()
	return s
}

// NewSentenceSpeech creates a talker that alternates multi-second
// utterances (no intra-sentence pauses) with 0.5–1.5 s silent gaps — the
// sound profile that LANC's predictive switching targets (Figure 17).
func NewSentenceSpeech(seed uint64, v Voice, sampleRate, amp float64) *Speech {
	s := NewSpeech(seed, v, sampleRate, amp)
	s.PauseProb = 0
	s.sentenceMode = true
	s.utterRemain = int(s.rng.Range(1.2, 2.5) * sampleRate)
	s.pickSegment()
	return s
}

func (s *Speech) pickSegment() {
	r := s.rng.Float64()
	switch {
	case r < s.PauseProb:
		s.mode = 0
		// Pauses 0.2-1.2 s, mimicking inter-sentence gaps.
		s.remaining = int(s.rng.Range(0.2, 1.2) * s.rate)
	case r < s.PauseProb+0.55:
		s.mode = 1
		s.remaining = int(s.rng.Range(0.08, 0.30) * s.rate) // syllable
		lo, hi := s.v.pitchRange()
		s.f0 = s.rng.Range(lo, hi)
		vf := vowelFormants[s.rng.Intn(len(vowelFormants))]
		var secs []*dsp.Biquad
		for _, f := range vf {
			if f >= s.rate/2 {
				continue
			}
			bq, err := dsp.NewPeakBiquad(f, s.rate, 4, 18)
			if err == nil {
				secs = append(secs, bq)
			}
		}
		s.formants = dsp.NewBiquadChain(secs...)
	default:
		s.mode = 2
		s.remaining = int(s.rng.Range(0.04, 0.12) * s.rate) // fricative
		// Fricatives concentrate energy at high frequency.
		cut := s.rate * 0.25
		h, err := dsp.HighPassFIR(cut, s.rate, 31, dsp.Hamming)
		if err == nil {
			s.fric = dsp.NewFIRFilter(h)
		} else {
			s.fric = nil
		}
	}
}

// Next returns the next speech sample.
func (s *Speech) Next() float64 {
	if s.sentenceMode {
		if s.gapRemain > 0 {
			s.gapRemain--
			return 0
		}
		if s.utterRemain <= 0 {
			s.gapRemain = int(s.rng.Range(0.5, 1.5) * s.rate)
			s.utterRemain = int(s.rng.Range(1.2, 2.5) * s.rate)
			return 0
		}
		s.utterRemain--
	}
	if s.remaining <= 0 {
		s.pickSegment()
	}
	s.remaining--
	switch s.mode {
	case 1: // voiced
		// Glottal pulse train: narrow impulses at f0 plus a weak sawtooth
		// component, shaped by formant resonators.
		s.phase += s.f0 / s.rate
		var excite float64
		if s.phase >= 1 {
			s.phase -= 1
			excite = 1
		}
		excite += 0.2*s.phase - 0.1 // sawtooth tilt
		excite += 0.02 * s.rng.Uniform()
		out := s.formants.Process(excite)
		return s.amp * 0.9 * out
	case 2: // unvoiced
		n := s.rng.Uniform()
		if s.fric != nil {
			n = s.fric.Process(n)
		}
		return s.amp * 0.8 * n
	default: // pause
		return 0
	}
}

// SampleRate implements Generator.
func (s *Speech) SampleRate() float64 { return s.rate }

// Music synthesizes a deterministic melodic/harmonic stream: a note
// sequence drawn from a pentatonic scale, each note carrying several
// harmonics with an exponential decay envelope, over a soft broadband bed.
// Spectrally it is wide-band and non-stationary — the hard case for the
// conventional headphone baseline.
type Music struct {
	rng   *RNG
	rate  float64
	amp   float64
	tempo float64 // notes per second

	noteRemaining int
	oscPhases     [4]float64
	oscSteps      [4]float64
	env           float64
	bed           *PinkNoise
}

// NewMusic creates a music source. tempo is in notes per second
// (2-4 typical).
func NewMusic(seed uint64, sampleRate, amp, tempo float64) *Music {
	m := &Music{
		rng:   NewRNG(seed),
		rate:  sampleRate,
		amp:   amp,
		tempo: tempo,
		bed:   NewPinkNoise(seed+1, sampleRate, amp*0.05),
	}
	m.nextNote()
	return m
}

// A-minor pentatonic over two octaves.
var pentatonic = []float64{220, 261.63, 293.66, 329.63, 392, 440, 523.25, 587.33, 659.25, 784}

func (m *Music) nextNote() {
	f := pentatonic[m.rng.Intn(len(pentatonic))]
	for k := 0; k < 4; k++ {
		h := f * float64(k+1)
		if h >= m.rate/2 {
			h = 0
		}
		m.oscSteps[k] = 2 * math.Pi * h / m.rate
	}
	m.env = 1
	m.noteRemaining = int(m.rate / m.tempo)
}

// Next returns the next music sample.
func (m *Music) Next() float64 {
	if m.noteRemaining <= 0 {
		m.nextNote()
	}
	m.noteRemaining--
	var s float64
	for k := 0; k < 4; k++ {
		if m.oscSteps[k] == 0 {
			continue
		}
		m.oscPhases[k] += m.oscSteps[k]
		if m.oscPhases[k] > 2*math.Pi {
			m.oscPhases[k] -= 2 * math.Pi
		}
		s += math.Sin(m.oscPhases[k]) / float64(k+1)
	}
	s *= m.env
	m.env *= math.Exp(-2.5 / m.rate) // note decay
	return m.amp*0.4*s + m.bed.Next()
}

// SampleRate implements Generator.
func (m *Music) SampleRate() float64 { return m.rate }

// Babble layers several continuous talkers to model corridor conversation
// ambience (the motivating scenario of Figure 1).
type Babble struct {
	talkers []*Speech
	rate    float64
}

// NewBabble creates n overlapping talkers.
func NewBabble(seed uint64, n int, sampleRate, amp float64) *Babble {
	b := &Babble{rate: sampleRate}
	for i := 0; i < n; i++ {
		v := MaleVoice
		if i%2 == 1 {
			v = FemaleVoice
		}
		t := NewSpeech(seed+uint64(i)*7919, v, sampleRate, amp/float64(n))
		t.PauseProb = 0.15
		b.talkers = append(b.talkers, t)
	}
	return b
}

// Next returns the summed talker output.
func (b *Babble) Next() float64 {
	var s float64
	for _, t := range b.talkers {
		s += t.Next()
	}
	return s
}

// SampleRate implements Generator.
func (b *Babble) SampleRate() float64 { return b.rate }
