package sim

import (
	"fmt"
	"time"

	"mute/internal/acoustics"
	"mute/internal/audio"
	"mute/internal/dsp"
	"mute/internal/rf"
)

// hopSeconds is how often a moving ear's channels are re-sampled along
// its path.
const hopSeconds = 0.25

// sourceWaves renders the first n samples of every source.
func sourceWaves(s Scene, n int) [][]float64 {
	waves := make([][]float64, len(s.Sources))
	for i, src := range s.Sources {
		waves[i] = audio.Render(src.Gen, n)
	}
	return waves
}

// renderAt sums the sources' waves as heard at pos. Room IRs are long
// enough that the convolver's partitioned overlap-save beats direct
// convolution, and the render cache folds the repeated renders of one
// scene (a figure's schemes, a sweep's cells) into one convolution, bit
// for bit. The per-source renders are shared and read-only; the sum is the
// caller's.
func renderAt(p Params, waves [][]float64, pos acoustics.Point) ([]float64, error) {
	streams := make([][]float64, len(waves))
	for i, src := range p.Scene.Sources {
		h, err := p.Scene.Room.ImpulseResponse(src.Pos, pos, p.Scene.SampleRate)
		if err != nil {
			return nil, fmt.Errorf("sim: source→%v RIR: %w", pos, err)
		}
		streams[i] = acousticRenders.render(waves[i], h)
	}
	return sumStreams(streams, len(waves[0])), nil
}

// relayLeg is the one relay capture chain: it renders the sources' waves
// at a relay position and, when forward is set, runs the relay-mic signal
// through the relay's front end seeded with seed — the FM link when
// p.UseFMLink, else the analog capture (mic noise, the anti-alias LPF,
// gain), memoized like the room renders. It returns the relay-mic signal
// and the forwarded reference (nil without forward; shared and read-only
// otherwise). The relay parameters are validated either way.
func relayLeg(p Params, waves [][]float64, pos acoustics.Point, seed uint64, forward bool) (mic, fwd []float64, err error) {
	start := time.Now()
	if mic, err = renderAt(p, waves, pos); err != nil {
		return nil, nil, err
	}
	p.observeStage("sim.stage.acoustics", start)
	start = time.Now()
	rp := p.Relay
	rp.Seed = seed
	relay, err := rf.NewRelay(rp, fmParamsFor(p, p.Scene.SampleRate))
	if err != nil {
		return nil, nil, err
	}
	switch {
	case !forward:
	case p.UseFMLink:
		if fwd, err = relay.Forward(mic, p.Channel); err != nil {
			return nil, nil, fmt.Errorf("sim: FM link: %w", err)
		}
	default:
		fwd = acousticRenders.memoized(mic, []float64{
			rp.MicNoiseRMS, rp.LPFCutoffHz, rp.Gain, float64(rp.Seed), p.Scene.SampleRate,
		}, renderKindCapture, func() []float64 { return relay.Capture(mic) })
	}
	p.observeStage("sim.stage.link", start)
	return mic, fwd, nil
}

// earLeg renders the sources' waves at the ear: through the static room
// channels, or along the ear's path when p.EarEnd moves it.
func earLeg(p Params, waves [][]float64) ([]float64, error) {
	if p.EarEnd == nil || *p.EarEnd == p.Scene.EarPos {
		return renderAt(p, waves, p.Scene.EarPos)
	}
	fs := p.Scene.SampleRate
	n := len(waves[0])
	hop := max(int(hopSeconds*fs), 1)
	fade := hop / 4
	from, to := p.Scene.EarPos, *p.EarEnd
	open := make([]float64, n)
	old := make([]float64, fade)
	buf := make([]float64, hop)
	var prev, cur []*dsp.StreamConvolver
	for t0 := 0; t0 < n; t0 += hop {
		frac := float64(t0) / float64(n)
		pos := acoustics.Point{
			X: from.X + (to.X-from.X)*frac,
			Y: from.Y + (to.Y-from.Y)*frac,
			Z: from.Z + (to.Z-from.Z)*frac,
		}
		prev, cur = cur, make([]*dsp.StreamConvolver, len(waves))
		for i, src := range p.Scene.Sources {
			h, err := p.Scene.Room.ImpulseResponse(src.Pos, pos, fs)
			if err != nil {
				return nil, fmt.Errorf("sim: source→ear RIR: %w", err)
			}
			cur[i] = dsp.NewStreamConvolver(h)
		}
		seg := open[t0:min(t0+hop, n)]
		accumulate(seg, cur, waves, t0, buf)
		if prev == nil {
			continue
		}
		// The previous hop's channels keep running on the same input
		// through the fade, and the new ones fade in linearly over it.
		f := min(fade, len(seg))
		clear(old)
		accumulate(old[:f], prev, waves, t0, buf)
		for k := range f {
			w := float64(k) / float64(fade)
			seg[k] = w*seg[k] + (1-w)*old[k]
		}
	}
	return open, nil
}

// accumulate adds every source's channel output over dst's span, starting
// at sample t0, to dst (buf is scratch of at least len(dst)).
func accumulate(dst []float64, chans []*dsp.StreamConvolver, waves [][]float64, t0 int, buf []float64) {
	out := buf[:len(dst)]
	for i, c := range chans {
		c.FilterInto(out, waves[i][t0:t0+len(dst)])
		for k, v := range out {
			dst[k] += v
		}
	}
}
