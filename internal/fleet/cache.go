package fleet

import (
	"mute/internal/anc"
	"mute/internal/dsp"
)

// memo is the cross-session memoization cache: the serving-path use of
// the content-keyed dsp.Memo the simulator's render cache also uses. A
// fleet opens thousands of sessions that mostly share a handful of
// acoustic profiles, and the expensive per-session setup — probing the
// secondary-path estimate ĥ_se, pre-rendering a room IR into the ambient
// channel — is a pure function of profile content. Keying on content
// (not profile identity) means two sessions configured independently with
// the same floats share one computation, and a session served from the
// cache runs sample-for-sample identically to one that computed its own.
//
// Cached slices are shared across sessions and MUST be treated as
// read-only — which they are: graph.Build and core.New copy what they
// mutate and only ever read the configured IRs.
type memo struct{ *dsp.Memo }

// Kind tags separating the computations sharing the cache.
const (
	memoKindSecondaryEst = iota // anc.EstimateSecondaryPath over a profile's chain
	memoKindRoomRender          // room IR ⊛ multipath channel pre-render
)

// sharedSetup is the process-wide cross-session setup cache. Capacity 64
// covers dozens of distinct acoustic profiles; a fleet serving one or a
// few profiles uses one entry per computation kind.
var sharedSetup = memo{dsp.NewMemo(64)}

// secondaryEstimate returns the calibrated ĥ_se for a profile's true
// secondary chain, memoized across every session that shares the chain.
func (m memo) secondaryEstimate(secIR []float64, noiseRMS float64, seed uint64) ([]float64, error) {
	params := []float64{noiseRMS, float64(seed)}
	return m.Get(secIR, params, memoKindSecondaryEst, func() ([]float64, error) {
		return anc.EstimateSecondaryPath(secIR, len(secIR)+8, 0, noiseRMS, seed)
	})
}

// roomRender returns the profile's effective ambient channel: the room IR
// convolved with the multipath channel, memoized. Sessions sharing a room
// share the pre-render the way the simulator's schemes share acoustic
// renders.
func (m memo) roomRender(roomIR, channelIR []float64) ([]float64, error) {
	return m.Get(roomIR, channelIR, memoKindRoomRender, func() ([]float64, error) {
		return dsp.Convolve(roomIR, channelIR), nil
	})
}
