package sim

import "mute/internal/dsp"

// renderCache memoizes acoustic pre-renders: the convolution of a source
// waveform with a room impulse response. The comparison experiments run the
// same scene through several schemes (Figure 12 alone runs four), and every
// scheme re-renders identical source→relay and source→ear streams; keying
// the render on the *content* of (wave, IR) through a dsp.Memo lets later
// schemes — and later runs in the same process, as in parameter sweeps —
// reuse the first render, bit-identically.
type renderCache struct{ *dsp.Memo }

// Kind tags separating the convolution semantics sharing the cache.
const (
	renderKindStream  = iota // StreamConvolver.ProcessBlock semantics
	renderKindSame           // ConvolveSame semantics
	renderKindCapture        // relay analog capture ("ir" = parameter vector)
)

func newRenderCache(capacity int) renderCache {
	return renderCache{dsp.NewMemo(capacity)}
}

// acousticRenders is the process-wide pre-render cache. Capacity 32 covers
// a multi-source scene's per-source×per-mic streams across all schemes of
// a figure with room to spare.
var acousticRenders = newRenderCache(32)

// render returns wave convolved with ir under the streaming-from-zero
// semantics of dsp.StreamConvolver.ProcessBlock, memoized. The returned
// slice is shared across callers and MUST be treated as read-only.
func (c renderCache) render(wave, ir []float64) []float64 {
	return c.memoized(wave, ir, renderKindStream, func() []float64 {
		return dsp.NewStreamConvolver(ir).ProcessBlock(wave)
	})
}

// renderSame is render with dsp.ConvolveSame semantics (the passive-cup
// application), under the same bit-identity and read-only contracts.
func (c renderCache) renderSame(x, h []float64) []float64 {
	return c.memoized(x, h, renderKindSame, func() []float64 {
		return dsp.ConvolveSame(x, h)
	})
}

// memoized is dsp.Memo.Get for the simulator's infallible renders.
func (c renderCache) memoized(wave, ir []float64, kind uint8, compute func() []float64) []float64 {
	out, _ := c.Get(wave, ir, kind, func() ([]float64, error) { return compute(), nil })
	return out
}
