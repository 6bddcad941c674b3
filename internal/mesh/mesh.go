// Package mesh scales MUTE's relay selection (Section 4.2) from Figure
// 19's handful of always-alive relays to a dense, churning mesh of
// dozens to hundreds: relays join, leave, crash, flap, and walk away
// mid-run while the sound source moves at walking speed, and the ear
// device must stay associated with a relay that is simultaneously
// acoustically useful (positive GCC-PHAT lookahead, Eq 4), link-healthy
// (low concealment ratio, fresh heartbeats), and warm (its stream's
// recent window holds no concealed samples).
//
// The package is organized as four cooperating pieces:
//
//   - Membership (membership.go) tracks the dynamic relay set with
//     per-relay liveness from a supervisor.LinkHealth — the estimator
//     the outage ladder and the multi-relay failover also use: its
//     concealed run is the heartbeat age, its clean run the warm-up
//     gate, its EWMA the eligibility test — so relays can come and go
//     without resetting anyone's state.
//   - A spatial grid index (grid.go) prunes each selection round to the
//     O(k) live relays nearest the current association, so re-running
//     GCC-PHAT over a 200-relay mesh costs the same as over 8 relays.
//   - The Supervisor (supervisor.go) owns the hysteretic handoff state
//     machine: dwell-gated challenger candidacies, make-before-break
//     warm-up of the incoming relay's stream, click-free crossfades,
//     emergency handoffs when the active relay dies between rounds, and
//     the membership/handoff/flap/orphan report.
//   - A seeded fault injector (faults.go) generates deterministic churn
//     schedules — crashes with recovery, a flapping relay, correlated
//     zone outages, walk-aways — for experiments and tests.
//
// Source (source.go) adapts a Supervisor to graph.SampleSource, so the
// mesh drops into the standard cancellation pipeline exactly where a
// single relay's jitter buffer would sit. The Supervisor is also the
// repository's one periodic relay re-selector: the two-relay Section 4.2
// tracking experiment runs on it with default policy settings.
package mesh

import (
	"fmt"

	"mute/internal/acoustics"
)

// Config parameterizes a mesh supervisor.
type Config struct {
	// Capacity is the maximum number of concurrent members (slots). The
	// per-sample Push cost is O(live members); Capacity only sizes the
	// flat slot arrays. Required.
	Capacity int

	// EarPos is the client's position — the grid-query anchor while no
	// relay is associated.
	EarPos acoustics.Point

	// WindowSamples is the GCC-PHAT correlation window (default 1024).
	WindowSamples int
	// IntervalSamples is the cadence of selection rounds (default
	// WindowSamples/2).
	IntervalSamples int
	// MaxLagSamples bounds the correlation search (default Window/8, must
	// be < Window/2).
	MaxLagSamples int
	// MinLeadSamples is the minimum useful lookahead per Eq 4 (default 1).
	MinLeadSamples int
	// MinPeak is the minimum correlation peak (default 0.05).
	MinPeak float64
	// CandidateK is the per-round correlation budget: only the K live
	// relays nearest the current association (or the ear, when orphaned)
	// are re-correlated (default 8).
	CandidateK int

	// CellSize is the spatial-grid cell edge in meters (default 1).
	CellSize float64
	// MinX/MinY/MaxX/MaxY bound the grid (defaults 0..16 m). Positions
	// outside are clamped to the edge cells.
	MinX, MinY, MaxX, MaxY float64

	// HeartbeatTimeoutSamples is how long a member may go without a real
	// sample before it is expired as dead (default 1600 — 200 ms at
	// 8 kHz).
	HeartbeatTimeoutSamples int
	// EmergencyRunSamples is the consecutive-concealed run on the active
	// relay that triggers an immediate (between-rounds) emergency handoff
	// to the best warm candidate from the last round (default 160).
	EmergencyRunSamples int
	// HealthAlpha smooths the per-relay concealment EWMA (default 1/256).
	HealthAlpha float64
	// UnhealthyHealth is the smoothed concealment ratio above which a
	// relay is ineligible for selection (default 0.25).
	UnhealthyHealth float64

	// DwellRounds is how many consecutive rounds a challenger must win by
	// the switch margin before a handoff begins (default 3).
	DwellRounds int
	// SwitchMarginSamples is how much more lookahead a challenger must
	// offer than the current association (default 4).
	SwitchMarginSamples int
	// WarmupSamples is the make-before-break gate: an incoming relay must
	// have delivered this many consecutive real samples before it may
	// carry the reference, so a completed switch never plays concealed
	// samples (default 256).
	WarmupSamples int
	// CrossfadeSamples is the handoff crossfade length (default 128).
	CrossfadeSamples int

	// Naive disables every robustness mechanism — health fusion, dwell,
	// warm-up, crossfade — and re-selects the instantaneous GCC-PHAT
	// argmax every round with a hard switch. This is the per-round
	// reselection baseline the experiments compare against.
	Naive bool
}

// fill validates the config and fills defaults.
func (c *Config) fill() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("mesh: capacity %d must be positive", c.Capacity)
	}
	if c.WindowSamples <= 0 {
		c.WindowSamples = 1024
	}
	if c.IntervalSamples <= 0 {
		c.IntervalSamples = c.WindowSamples / 2
	}
	if c.MaxLagSamples <= 0 {
		c.MaxLagSamples = c.WindowSamples / 8
	}
	if c.MaxLagSamples >= c.WindowSamples/2 {
		return fmt.Errorf("mesh: max lag %d must be < window/2 (%d)", c.MaxLagSamples, c.WindowSamples/2)
	}
	if c.MinLeadSamples <= 0 {
		c.MinLeadSamples = 1
	}
	if c.MinPeak <= 0 {
		c.MinPeak = 0.05
	}
	if c.CandidateK <= 0 {
		c.CandidateK = 8
	}
	if c.CellSize <= 0 {
		c.CellSize = 1
	}
	if c.MaxX <= c.MinX {
		c.MinX, c.MaxX = 0, 16
	}
	if c.MaxY <= c.MinY {
		c.MinY, c.MaxY = 0, 16
	}
	if c.HeartbeatTimeoutSamples <= 0 {
		c.HeartbeatTimeoutSamples = 1600
	}
	if c.EmergencyRunSamples <= 0 {
		c.EmergencyRunSamples = 160
	}
	if c.HealthAlpha <= 0 {
		c.HealthAlpha = 1.0 / 256
	}
	if c.UnhealthyHealth <= 0 {
		c.UnhealthyHealth = 0.25
	}
	if c.DwellRounds <= 0 {
		c.DwellRounds = 3
	}
	if c.SwitchMarginSamples <= 0 {
		c.SwitchMarginSamples = 4
	}
	if c.WarmupSamples <= 0 {
		c.WarmupSamples = 256
	}
	if c.CrossfadeSamples <= 0 {
		c.CrossfadeSamples = 128
	}
	return nil
}
