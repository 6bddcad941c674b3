package core

// Read-only observability accessors for the telemetry layer. Every method
// here is a pure read of adaptation state: calling them any number of
// times, at any point in the sample loop, changes nothing about the
// algorithm's output — the property the instrumentation's result-neutrality
// tests depend on. (Contrast lossGain, which consumes a ramp step and is
// therefore private.)

// TapEnergy returns Σ h_AF(k)², the energy of the adaptive filter — a
// cheap scalar proxy for "how converged is the filter" that telemetry
// samples per block.
func (l *LANC) TapEnergy() float64 {
	// Summed from h_AF(−N), the end of the window-order taps.
	var e float64
	for j := len(l.w) - 1; j >= 0; j-- {
		e += l.w[j] * l.w[j]
	}
	return e
}

// EffectiveStep returns the step size the next Adapt would use after NLMS
// power normalization (before the loss gain is applied).
func (l *LANC) EffectiveStep() float64 { return l.effectiveMu() }

// LossState reports the freeze machinery's current posture — loss-aware
// concealment freezes and explicit HoldAdaptation holds alike — without
// consuming a ramp step: gain is the adaptation scale the next update
// would see (0 while frozen, (0,1) while ramping back, 1 in steady
// state), frozen is true while the freeze guard is armed, and rampLeft
// counts the ramp samples remaining. With LossAware off and no hold
// pending it reports (1, false, 0).
func (l *LANC) LossState() (gain float64, frozen bool, rampLeft int) {
	if l.concealGuard > 0 {
		return 0, true, l.rampLeft
	}
	if l.rampLeft > 0 && l.rampLen > 0 {
		return 1 - float64(l.rampLeft)/float64(l.rampLen), false, l.rampLeft
	}
	return 1, false, 0
}
