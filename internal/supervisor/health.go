// Package supervisor implements MUTE's relay-outage resilience: a
// link-health estimator feeding a deterministic degradation ladder that
// steps the ear device down from full lookahead-aware cancellation to a
// local causal fallback — and back — as the wireless reference comes and
// goes.
//
// The paper's system is only as good as its IoT relay link: LANC's
// non-causal taps are realizable precisely because the relay delivers
// x(t+N) early, so when the relay reboots or fades out, the lookahead
// evaporates and an unsupervised canceller adapts against concealment
// zeros. The ladder bounds that failure:
//
//	LANC        full non-causal window, the paper's algorithm
//	DEGRADED    shrunken non-causal window (sized by internal/graph's
//	            window owner, which reads the rung)
//	FALLBACK    local headphone canceller (internal/headphone, a
//	            zero-lookahead LANC), warm-started from LANC's causal
//	            taps — the Bose-class canceller the paper compares
//	            against, which needs no wireless leg
//	PASSTHROUGH anti-noise muted; passive isolation only
//
// Every demotion and promotion is dwell-gated, hysteretic, and crossfaded,
// and promotions out of FALLBACK/PASSTHROUGH are additionally paced by an
// exponential-backoff reacquisition probe so a flapping link cannot thrash
// the filters. All decisions run on the sample clock from deterministic
// inputs, so a seeded run yields a byte-identical transition trace.
package supervisor

// HealthAlpha is the link-health EWMA smoothing constant, about a 32 ms
// horizon at 8 kHz. The ladder and the relay mesh's default both smooth
// with it.
const HealthAlpha = 1.0 / 256

// LinkHealth is the link-health estimator shared by the ladder and the
// relay mesh (internal/mesh, the one relay selector). Its single
// per-sample input is the transport concealment flag
// (stream.JitterBuffer's PopMask verdict): a concealed sample is evidence
// of loss, jitter-buffer starvation, or a lookahead-budget deficit —
// whichever layer failed, the canceller saw a fabricated reference
// sample. From the flag it maintains the EWMA
// concealment ratio (the smoothed loss rate), the current concealed run
// (the outage and heartbeat detector) and the current clean run (the
// recovery dwell and make-before-break warm-up gate).
type LinkHealth struct {
	alpha     float64 // EWMA smoothing constant
	ewma      float64 // smoothed concealment ratio in [0, 1]
	concealed int     // current consecutive-concealed run
	clean     int     // current consecutive-real run
}

// NewLinkHealth returns a pristine estimator smoothing with alpha.
func NewLinkHealth(alpha float64) LinkHealth { return LinkHealth{alpha: alpha} }

// Observe folds one sample period's concealment flag into the estimate.
func (h *LinkHealth) Observe(real bool) {
	x := 0.0
	if real {
		h.concealed = 0
		h.clean++
	} else {
		x = 1
		h.concealed++
		h.clean = 0
	}
	h.ewma += h.alpha * (x - h.ewma)
}

// EWMA returns the smoothed concealment ratio in [0, 1].
func (h *LinkHealth) EWMA() float64 { return h.ewma }

// ConcealedRun returns the current run of consecutive concealed samples.
func (h *LinkHealth) ConcealedRun() int { return h.concealed }

// CleanRun returns the current run of consecutive real samples.
func (h *LinkHealth) CleanRun() int { return h.clean }

// ResetRuns zeroes both runs while keeping the EWMA: a stream that
// restarts (a relay rejoining the mesh) must re-earn its clean run, but
// its concealment history remains evidence about the link.
func (h *LinkHealth) ResetRuns() { h.concealed, h.clean = 0, 0 }
