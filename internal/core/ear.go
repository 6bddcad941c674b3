package core

// The demo ear is the synthetic ear device shared by the simulator's
// scenes, the live loopback demo (cmd/muteear), the session server's
// default profile and the synthetic experiment cells. Each function
// returns a fresh slice, because callers such as fleet.Profile keep the
// one they get. Its chain models no device pipeline, so the bindings
// that use it as the whole secondary chain (the session server, muteear,
// the synthetic cells) plan a zero pipeline delay: a debit the chain
// does not carry would leave that many taps modelling pure delay.

// EarSecondaryPath returns the short acoustic path from the anti-noise
// speaker to the error microphone a couple of centimeters away: a strong
// direct tap with slight near-field spill. Where the chain carries no
// other latency it doubles as the canceller's estimate ĥ_se.
func EarSecondaryPath() []float64 { return []float64{0.85, 0.22, 0.06} }

// EarChannel returns the demo ear's small multipath channel from the
// forwarded reference to the wavefront at the ear.
func EarChannel() []float64 { return []float64{0.8, 0.25, 0.1, 0.05} }

// EarCausalTaps is the causal filter length that covers the demo ear: the
// four taps of EarChannel and the tail of the secondary path's inverse.
// The reference alignment (graph.Build) spends the leftover lookahead as
// delay, so the taps model the channel, not the delay.
const EarCausalTaps = 8
