// Package mesh scales MUTE's relay selection (Section 4.2) from Figure
// 19's handful of always-alive relays to a dense, churning mesh of
// dozens to hundreds: relays join, crash and flap mid-run while the
// sound source moves at walking speed, and the ear device must stay
// associated with a relay that is simultaneously acoustically useful
// (positive GCC-PHAT lookahead, Eq 4), link-healthy (low concealment
// ratio, fresh heartbeats), and warm (its stream's recent window holds no
// concealed samples).
//
// The package is organized as four cooperating pieces:
//
//   - Membership (membership.go) tracks the dynamic relay set with
//     per-relay liveness from a supervisor.LinkHealth — the estimator
//     the outage ladder also uses: its concealed run is the heartbeat
//     age, its clean run the warm-up gate, its EWMA the eligibility
//     test — so relays can come and go without resetting anyone's
//     state.
//   - A spatial grid index (grid.go) prunes each selection round to the
//     O(k) live relays nearest the current association, so re-running
//     GCC-PHAT over a 200-relay mesh costs the same as over 8 relays.
//   - The Supervisor (supervisor.go) owns the hysteretic handoff state
//     machine: dwell-gated challenger candidacies, make-before-break
//     warm-up of the incoming relay's stream, click-free crossfades,
//     emergency handoffs when the active relay dies between rounds, and
//     the membership/handoff/flap/orphan report.
//   - A seeded fault injector (faults.go) generates deterministic churn
//     schedules — crashes with recovery and flapping relays pinned where
//     the experiment places them — for experiments and tests.
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
	"mute/internal/supervisor"
)

// The handoff policy's fixed tuning, on the sample clock at 8 kHz.
const (
	// candidateK is the per-round correlation budget: only the K live
	// relays nearest the current association (or the ear, when orphaned)
	// are re-correlated.
	candidateK = 8
	// heartbeatTimeoutSamples is how long a member may go without a real
	// sample before it is expired as dead (200 ms).
	heartbeatTimeoutSamples = 1600
	// emergencyRunSamples is the consecutive-concealed run on the active
	// relay that triggers an immediate (between-rounds) emergency handoff
	// to the best warm candidate from the last round.
	emergencyRunSamples = 160
	// ineligibleRatio is the smoothed concealment ratio at or above which
	// a relay's link is too lossy to select: the mesh drops it from its
	// candidates, and an incumbent that reaches it triggers the emergency
	// handoff.
	ineligibleRatio = 0.25
	// dwellRounds is how many consecutive rounds a challenger must win by
	// the switch margin before a handoff begins.
	dwellRounds = 3
	// warmupSamples is the make-before-break gate: an incoming relay must
	// have delivered this many consecutive real samples before it may
	// carry the reference, so a completed switch never plays concealed
	// samples.
	warmupSamples = 256
	// crossfadeSamples is the handoff crossfade length.
	crossfadeSamples = 128
)

// Config parameterizes a mesh supervisor. Selection rounds run every
// WindowSamples/2 samples.
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
	// MaxLagSamples bounds the correlation search (default Window/8, must
	// be < Window/2).
	MaxLagSamples int
	// MinLeadSamples is the minimum useful lookahead per Eq 4 (default 1).
	MinLeadSamples int
	// MinPeak is the minimum correlation peak (default 0.05).
	MinPeak float64

	// CellSize is the spatial-grid cell edge in meters (default 1).
	CellSize float64
	// MaxX/MaxY bound the grid, which starts at the origin (defaults
	// 16 m). Positions outside are clamped to the edge cells.
	MaxX, MaxY float64

	// HealthAlpha smooths the per-relay concealment EWMA (default
	// supervisor.HealthAlpha).
	HealthAlpha float64

	// SwitchMarginSamples is how much more lookahead a challenger must
	// offer than the current association (default 4).
	SwitchMarginSamples int

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
	if c.CellSize <= 0 {
		c.CellSize = 1
	}
	if c.MaxX <= 0 {
		c.MaxX = 16
	}
	if c.MaxY <= 0 {
		c.MaxY = 16
	}
	if c.HealthAlpha <= 0 {
		c.HealthAlpha = supervisor.HealthAlpha
	}
	if c.SwitchMarginSamples <= 0 {
		c.SwitchMarginSamples = 4
	}
	return nil
}
